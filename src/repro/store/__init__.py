"""Pluggable corpus storage: one stored row per document.

The package splits into four layers:

* :mod:`repro.store.encoding` — document <-> one flat preorder body;
* :mod:`repro.store.backend` — the :class:`StorageBackend` contract and
  the :func:`open_backend` location factory (plus the
  :mod:`~repro.store.memory` and :mod:`~repro.store.sqlite`
  implementations behind it);
* :mod:`repro.store.fdstate` — persistable FD index snapshots;
* :mod:`repro.store.corpus` — :class:`CorpusStore`, the corpus-scale
  load / check-FD / guarded-apply operations.
"""

from repro.store.backend import (
    StorageBackend,
    open_backend,
    open_existing_backend,
)
from repro.store.corpus import (
    CorpusApplyReport,
    CorpusCheckReport,
    CorpusLoadReport,
    CorpusStore,
    DocumentApply,
    DocumentCheck,
    open_corpus,
)
from repro.store.encoding import (
    DocumentBody,
    decode_document,
    encode_document,
)
from repro.store.fdstate import FDIndexState, fingerprint_fd
from repro.store.memory import MemoryBackend
from repro.store.sqlite import SqliteBackend

__all__ = [
    "CorpusApplyReport",
    "CorpusCheckReport",
    "CorpusLoadReport",
    "CorpusStore",
    "DocumentApply",
    "DocumentBody",
    "DocumentCheck",
    "FDIndexState",
    "MemoryBackend",
    "SqliteBackend",
    "StorageBackend",
    "decode_document",
    "encode_document",
    "fingerprint_fd",
    "open_backend",
    "open_existing_backend",
    "open_corpus",
]
