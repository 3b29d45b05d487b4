"""Property suites: encoding round-trips and FD-state persistence.

Two identities, each over 100+ random documents:

* document → stored body → document is the identity (serialized forms
  compared — the strongest observable equality the model offers);
* a persisted-and-reloaded :class:`~repro.store.fdstate.FDIndexState`
  equals the state snapshotted from a freshly built
  :class:`~repro.fd.index.FDIndex` on the same document.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import StoreError
from repro.fd.linear import LinearFD, translate_linear_fd
from repro.store import (
    CorpusStore,
    MemoryBackend,
    SqliteBackend,
    decode_document,
    encode_document,
)
from repro.store.encoding import DocumentBody
from repro.store.fdstate import FDIndexState, fingerprint_fd
from repro.workload.library import generate_library, library_fds
from repro.workload.random_docs import random_document
from repro.xmlmodel.builder import attr, doc, elem, text
from repro.xmlmodel.serializer import serialize_document

ROUNDTRIP_SEEDS = range(110)


def _random_corpus_document(seed: int):
    """Vary the generator so attributes, text and shape all appear."""
    if seed % 4 == 0:
        return generate_library(
            books=1 + seed % 3,
            seed=seed,
            violate_key=1 if seed % 8 == 0 else 0,
        )
    return random_document(
        seed=seed,
        max_depth=2 + seed % 3,
        max_children=1 + seed % 3,
        text_probability=0.2 + (seed % 5) * 0.15,
    )


class TestEncodingRoundtrip:
    @pytest.mark.parametrize("seed", ROUNDTRIP_SEEDS)
    def test_document_rows_document_identity(self, seed):
        document = _random_corpus_document(seed)
        rows = encode_document(document)
        back = decode_document(rows)
        assert serialize_document(back) == serialize_document(document)
        # encoding the decoded document reproduces the same rows, so
        # the encoding itself is canonical (no hidden normalization)
        assert encode_document(back) == rows

    def test_attribute_order_preserved(self):
        document = doc(
            elem(
                "book",
                attr("isbn", "i1"),
                attr("lang", "en"),
                elem("title", text("T")),
            )
        )
        back = decode_document(encode_document(document))
        labels = [child.label for child in back.root.children[0].children]
        assert labels == ["@isbn", "@lang", "title"]

    def test_empty_element_document(self):
        document = doc(elem("empty"))
        rows = encode_document(document)
        assert rows.node_count == 2  # root + the element
        back = decode_document(rows)
        assert serialize_document(back) == serialize_document(document)

    @pytest.mark.parametrize(
        "damage",
        [
            "non-json",
            "truncated-text",
            "truncated-triples",
            "trailing-triples",
            "non-string-label",
            "negative-child-count",
        ],
    )
    def test_damaged_body_is_loud(self, damage):
        document = doc(elem("a", attr("k", "v"), elem("b", text("t"))))
        body = encode_document(document)
        triples = json.loads(body.text)
        assert triples == [
            ["/", None, 1],
            ["a", None, 2],
            ["@k", "v", 0],
            ["b", None, 1],
            ["#text", "t", 0],
        ]
        if damage == "non-json":
            damaged = "not a body"
        elif damage == "truncated-text":
            damaged = body.text[: len(body.text) // 2]
        else:
            if damage == "truncated-triples":
                triples = triples[:-1]
            elif damage == "trailing-triples":
                triples.append(["c", None, 0])
            elif damage == "non-string-label":
                triples[1][0] = 7
            else:
                triples[3][2] = -1
            damaged = json.dumps(triples)
        with pytest.raises(StoreError):
            decode_document(DocumentBody(damaged, body.nodes, body.attrs))

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_ten_thousand_deep_document_roundtrips(self, tmp_path, backend):
        depth = 10_000
        source = (
            '<a k="v">' + "<a>" * (depth - 1) + "t" + "</a>" * depth
        )
        path = tmp_path / "deep.xml"
        path.write_text(source, encoding="utf-8")
        store = CorpusStore(
            MemoryBackend()
            if backend == "memory"
            else SqliteBackend(tmp_path / "deep.db")
        )
        with store:
            report = store.load_paths([str(path)], parse_budget=None)
            assert report.loaded == 1 and report.errors == 0
            assert store.stats()["nodes"] == depth + 2  # root and text
            back = store.get_document(str(path))
        assert serialize_document(back) == source


class TestFDStatePersistence:
    @pytest.mark.parametrize("seed", range(104))
    def test_reloaded_state_equals_fresh_index(self, seed):
        document = generate_library(
            books=1 + seed % 4,
            seed=seed,
            violate_key=1 if seed % 5 == 0 else 0,
            violate_title=1 if seed % 7 == 0 else 0,
        )
        fd = library_fds()[seed % len(library_fds())]
        state = FDIndexState.from_document(fd, document)
        reloaded = FDIndexState.from_json_dict(state.to_json_dict())
        assert reloaded == state
        # and a *fresh* index over the same document agrees completely
        fresh = FDIndexState.from_document(fd, document)
        assert fresh == reloaded

    def test_state_survives_sqlite(self, tmp_path):
        document = generate_library(books=3, seed=9, violate_key=1)
        fd = library_fds()[0]
        state = FDIndexState.from_document(fd, document)
        backend = SqliteBackend(tmp_path / "s.db")
        backend.put_document(
            "d.xml", "sha", encode_document(document)
        )
        backend.put_index_state(
            "d.xml", state.fd_fingerprint, state.to_json_dict()
        )
        backend.close()
        reopened = SqliteBackend(tmp_path / "s.db")
        persisted = reopened.get_index_state("d.xml", state.fd_fingerprint)
        assert FDIndexState.from_json_dict(persisted) == state
        reopened.close()

    def test_node_equality_target_keys_roundtrip(self):
        # an FD with node-equality target exercises the ("node", pos)
        # key shape of the codec
        fd = translate_linear_fd(
            LinearFD.parse(
                "(/library, ((book/@isbn) -> book[N]))", name="node-target"
            )
        )
        document = generate_library(books=3, seed=2)
        state = FDIndexState.from_document(fd, document)
        assert FDIndexState.from_json_dict(state.to_json_dict()) == state

    def test_fingerprint_separates_different_fds(self):
        fds = library_fds()
        fingerprints = {fingerprint_fd(fd) for fd in fds}
        assert len(fingerprints) == len(fds)

    def test_damaged_state_is_loud(self):
        document = generate_library(books=2, seed=1)
        state = FDIndexState.from_document(library_fds()[0], document)
        payload = state.to_json_dict()
        payload["groups"] = [[[{"zz": 1}], []]]
        with pytest.raises(StoreError):
            FDIndexState.from_json_dict(payload)
