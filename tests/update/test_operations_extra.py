"""Unit tests for the structural update operations (wrap/unwrap/drop)."""

import pytest

from repro.fd.fd import FunctionalDependency
from repro.pattern.builder import build_pattern, edge
from repro.update.apply import Update, apply_update
from repro.update.batch import UpdateBatch
from repro.update.operations import drop_children, transform, unwrap, wrap_in
from repro.update.update_class import UpdateClass
from repro.xmlmodel.builder import elem, text
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import serialize_document


def _class(spec):
    return UpdateClass(build_pattern(spec, selected=("s",)))


class TestWrap:
    def test_wrap_element(self):
        document = parse_document("<a><b>x</b></a>")
        update = Update(_class(edge("a")(edge("b", name="s"))), wrap_in("w"))
        updated = apply_update(document, update)
        assert serialize_document(updated) == "<a><w><b>x</b></w></a>"

    def test_wrap_multiple(self):
        document = parse_document("<a><b/><b/></a>")
        update = Update(_class(edge("a")(edge("b", name="s"))), wrap_in("w"))
        updated = apply_update(document, update)
        assert serialize_document(updated) == "<a><w><b/></w><w><b/></w></a>"


class TestUnwrap:
    def test_unwrap_promotes_first_element_child(self):
        document = parse_document("<a><w><b>x</b></w></a>")
        update = Update(_class(edge("a")(edge("w", name="s"))), unwrap())
        updated = apply_update(document, update)
        assert serialize_document(updated) == "<a><b>x</b></a>"

    def test_unwrap_without_element_child_deletes(self):
        document = parse_document("<a><w>text only</w><keep/></a>")
        update = Update(_class(edge("a")(edge("w", name="s"))), unwrap())
        updated = apply_update(document, update)
        assert serialize_document(updated) == "<a><keep/></a>"

    def test_wrap_then_unwrap_round_trips(self):
        document = parse_document("<a><b><c>1</c></b></a>")
        selector = _class(edge("a")(edge("b", name="s")))
        wrapped = apply_update(document, Update(selector, wrap_in("w")))
        unwrap_selector = _class(edge("a")(edge("w", name="s")))
        unwrapped = apply_update(wrapped, Update(unwrap_selector, unwrap()))
        assert serialize_document(unwrapped) == serialize_document(document)


class TestDropChildren:
    def test_drop_by_label(self):
        document = parse_document("<a><item><x/><y/><x/></item></a>")
        update = Update(
            _class(edge("a")(edge("item", name="s"))), drop_children("x")
        )
        updated = apply_update(document, update)
        assert serialize_document(updated) == "<a><item><y/></item></a>"

    def test_drop_missing_label_noop(self):
        document = parse_document("<a><item><y/></item></a>")
        update = Update(
            _class(edge("a")(edge("item", name="s"))), drop_children("zzz")
        )
        updated = apply_update(document, update)
        assert serialize_document(updated) == serialize_document(document)

    def test_drop_text_children(self):
        document = parse_document("<a><item>t<y/>t</item></a>")
        update = Update(
            _class(edge("a")(edge("item", name="s"))), drop_children("#text")
        )
        updated = apply_update(document, update)
        assert serialize_document(updated) == "<a><item><y/></item></a>"


def _caveat():
    """A certified (FD, class) pair and a document a relabeled z breaks.

    The class selects z nodes, never on the FD's traces; z sits between
    k and v, so a z relabeled to k starts a new trace that respects the
    template's sibling order (k before v).
    """
    fd = FunctionalDependency(
        build_pattern(
            edge("r", name="c")(
                edge("i")(edge("k", name="p1"), edge("v", name="q"))
            ),
            selected=("p1", "q"),
        ),
        context="c",
    )
    update_class = _class(edge("r.i.z", name="s"))
    document = parse_document(
        "<r>"
        "<i><k>a</k><z/><v>1</v></i>"
        "<i><k>b</k><v>2</v></i>"
        "</r>"
    )
    return fd, update_class, document


def _relabel_in_place(old):
    old.label = "k"
    old.append_child(text("b"))
    return old


#: label-REWRITING performers that turn z into a second key b
_SABOTAGE = {
    "new-root": transform(lambda old: elem("k", text("b"))),
    "in-place": transform(_relabel_in_place),
}


class TestLabelPreservation:
    """wrap/unwrap change the label at the updated position — the regime
    where Proposition 2's implicit assumption does not apply."""

    def test_wrap_changes_position_label(self):
        document = parse_document("<a><b/></a>")
        update = Update(_class(edge("a")(edge("b", name="s"))), wrap_in("w"))
        updated = apply_update(document, update)
        assert updated.node_at((0, 0)).label == "w"

    def test_wrap_can_defeat_certified_independence(self):
        """An explicit demonstration of the label-preservation caveat:
        IC certifies (fd, U) but a label-rewriting performer still
        breaks the FD — which is why the soundness contract (DESIGN.md)
        restricts performers to label-preserving ones, and why guarded
        updates recheck when a performer relabels."""
        from repro.fd.satisfaction import document_satisfies
        from repro.independence.criterion import check_independence

        fd, update_class, document = _caveat()
        assert check_independence(fd, update_class).independent
        assert document_satisfies(fd, document)

        sneaky = Update(update_class, _SABOTAGE["new-root"])
        updated = apply_update(document, sneaky)
        # the first i now has k=a, k=b, v=1: the new trace pairs k=b with
        # v=1 while the second i pairs k=b with v=2 -> violated
        assert not document_satisfies(fd, updated)

    @pytest.mark.parametrize("performer", sorted(_SABOTAGE))
    def test_relabeling_performer_forces_the_certified_recheck(
        self, performer
    ):
        fd, update_class, document = _caveat()
        batch = UpdateBatch([Update(update_class, _SABOTAGE[performer])])
        outcome = batch.apply_guarded(
            document, fds=[fd], certified={(fd.name, update_class.name)}
        )
        assert not outcome.committed
        assert outcome.failed_fd_names == [fd.name]
        assert (outcome.checks_run, outcome.checks_skipped) == (1, 0)

    @pytest.mark.parametrize("performer", sorted(_SABOTAGE))
    def test_relabeling_performer_routes_to_revalidation(self, performer):
        from repro.independence.criterion import check_independence
        from repro.independence.revalidate import apply_with_fallback

        fd, update_class, document = _caveat()
        result = check_independence(fd, update_class)
        routed = apply_with_fallback(
            result, document, Update(update_class, _SABOTAGE[performer])
        )
        assert routed.revalidated
        assert not routed.fd_preserved

    def test_label_preserving_performers_keep_the_skip(self):
        from repro.update.operations import delete_node, set_text

        fd, update_class, document = _caveat()
        for performer in (set_text("b"), delete_node()):
            outcome = UpdateBatch([Update(update_class, performer)]).apply_guarded(
                document, fds=[fd], certified={(fd.name, update_class.name)}
            )
            assert outcome.committed
            assert (outcome.checks_run, outcome.checks_skipped) == (0, 1)
