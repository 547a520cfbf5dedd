"""The per-request head loop ``LayerwiseEmbeddings.rowwise_logits`` was
until the head became the offline pass's last layer — kept verbatim as
the oracle the logit table must reproduce bit for bit.

Every queried row is wrapped in its own ``(1, d)`` tensor and run
through the classifier head, so a row's bits cannot depend on the batch
it rode in.  The library now builds the same rows once, as one stacked
``(N, 1, d)`` head pass; that the two agree is a property of numpy's
matmul dispatch, which is why ``test_logit_table.py`` checks it over
generated models on every numpy of the CI matrix.  Each head pass runs
under ``no_grad`` (``_head_logits`` enters it), as the engines' head
passes always did.
"""

import numpy as np

from repro.errors import ServingError


def rowwise_logits(embeddings, vertices):
    """``embeddings``' logits for ``vertices``, one row at a time."""
    vertices = np.asarray(vertices, dtype=np.int64)
    if len(vertices) == 0:
        raise ServingError("cannot serve an empty query batch")
    return np.concatenate(
        [embeddings._head_logits(embeddings.table[v:v + 1])
         for v in vertices], axis=0)
