"""The per-graph encoder path, kept as the reference for the batched one.

Each graph is encoded on its own: its dense n x n operator, the GAT
attention built from tape ops on that operator, and a column mean as the
readout. The functions take the same GraphEncoder (and its parameters) as
`dsgc.encoders`, so a batch's rows can be compared with these one by one.
"""

import numpy as np

from dsgc import autodiff as ad
from dsgc.encoders import EncoderKind

GAT_NEG_OFFSET = 1e4


def prop_matrix(g, kind):
    a = np.zeros((g.n, g.n))
    if g.num_edges:
        a[g.edges[:, 0], g.edges[:, 1]] = 1.0
        a[g.edges[:, 1], g.edges[:, 0]] = 1.0
    if kind is EncoderKind.GCN:
        a_hat = a + np.eye(g.n)
        d_inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
        return a_hat * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]
    if kind is EncoderKind.GRAPHSAGE:
        return a / np.maximum(a.sum(axis=1, keepdims=True), 1.0)
    return a + np.eye(g.n)


def gat_attention(scores_src, scores_dst, mask):
    e = ad.leaky_relu(ad.add(scores_src, ad.transpose(scores_dst)), 0.2)
    masked = ad.sub(ad.mul(e, mask), GAT_NEG_OFFSET * (1.0 - mask))
    shifted = ad.exp(ad.sub(masked, ad.amax(masked, axis=1)))
    kept = ad.mul(shifted, mask)
    return ad.div(kept, ad.asum(kept, axis=1))


def aggregate(enc, X, g, layer):
    p = enc.layer_params[layer]
    prop = prop_matrix(g, enc.kind)
    if enc.kind is EncoderKind.GRAPHSAGE:
        return ad.concat_cols([X, ad.matmul(prop, X)])
    if enc.kind is EncoderKind.GAT:
        att = gat_attention(ad.matmul(X, p["a_src"]), ad.matmul(X, p["a_dst"]), prop)
        return ad.matmul(att, X)
    return ad.matmul(prop, X)


def layer_forward(enc, H, g, layer):
    p = enc.layer_params[layer]
    if enc.kind in (EncoderKind.GCN, EncoderKind.GAT):
        return aggregate(enc, ad.matmul(H, p["W"]), g, layer)
    agg = aggregate(enc, H, g, layer)
    if enc.kind is EncoderKind.GRAPHSAGE:
        return ad.matmul(agg, p["W"])
    h1 = ad.relu(ad.add(ad.matmul(agg, p["W1"]), p["b1"]))
    return ad.add(ad.matmul(h1, p["W2"]), p["b2"])


def node_embeddings(enc, g):
    H = g.features
    for layer in range(enc.num_layers):
        H = ad.relu(layer_forward(enc, H, g, layer))
    return H


def mobius_node_points(enc, g, ball):
    U = ball.expmap0(g.features)
    for layer in range(enc.num_layers):
        p = enc.layer_params[layer]
        agg = ball.expmap0(aggregate(enc, ball.logmap0(U), g, layer))
        W = p["W"] if "W" in p else p["W1"]
        b = p.get("b1")
        if b is None:
            b = np.zeros((1, W.shape[1]))
        U = ball.hyperbolic_activation(agg, ad.transpose(W), b, "relu")
    return U


def encode_euclidean(g, enc):
    """(1, d) embedding of one graph."""
    return ad.amean(node_embeddings(enc, g), axis=0)


def encode_hyperbolic(g, enc, ball):
    """(1, d) ball point of one graph, tangent-readout or Mobius."""
    if enc.mobius:
        points = mobius_node_points(enc, g, ball)
        return ball.expmap0(ad.amean(ball.logmap0(points), axis=0))
    return ball.expmap0(encode_euclidean(g, enc))
