"""GAT's attention as the composed chain of tape nodes, kept verbatim as
the oracle.

:func:`composed_attention` is the body ``GATConv.forward_block`` ran per
head before the attention became one ``repro.kernels.gat_attention``
node: two ``Tensor.affine`` score products, ``leading_rows``, a
``gsddmm`` add, ``reshape``, ``leaky_relu``, ``edge_softmax`` and the
attention-weighted ``gspmm`` — eight tape nodes, each with its own
backward.  It defines the bits (forward values and every gradient) the
fused node must reproduce; ``test_gat_fused.py`` runs generated blocks
both ways.  Do not "fix" or speed up anything here.

:func:`composed_gat` swaps it into ``repro.nn.layers`` for the ``with``
body, so whole layers and models run on the composed chain unchanged.
"""

from contextlib import contextmanager

import pytest

from repro.kernels import edge_softmax, gsddmm, gspmm
from repro.nn import layers


def composed_attention(edges, transformed, attn_src, attn_dst,
                       negative_slope):
    score_src = (transformed @ attn_src)         # (S, 1)
    # Destinations are the leading block sources (MFG
    # convention), so the dst-side operand is the leading rows.
    score_dst = (transformed @ attn_dst).leading_rows(
        edges.shape[0])                          # (D, 1)
    scores = gsddmm(edges, score_dst, score_src, op="add")
    alpha = edge_softmax(edges, scores.reshape(-1).leaky_relu(
        negative_slope))
    return gspmm(edges, transformed, values=alpha)


@contextmanager
def composed_gat():
    """Run the ``with`` body's GAT layers on the composed chain."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(layers, "gat_attention", composed_attention)
        yield
