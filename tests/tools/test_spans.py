"""``repro.spans`` names callables, matches bench's own list, and keeps
wrapped owners apart (CONTRIBUTING, "Names ``bench/`` holds on to")."""

import inspect

from bench.tracing import _SPANS as BENCH_SPANS
from repro.core.failover import FailoverManager
from repro.net.transport import DatagramTransport
from repro.overlay.linkstate import LinkStateTable
from repro.spans import SPANS

#: The boundaries the table adds to ``bench/tracing.py``'s ``_SPANS``:
#: the poll bench wraps by hand, and the fan-out send no span covers yet.
ADDED = {
    (FailoverManager, "poll", "failover.poll"),
    (DatagramTransport, "send_many", "transport.send_many"),
}


def nested_owners(spans):
    """Pairs of entries with one attribute whose owners are the same
    class or a class and its subclass."""
    classes = [(owner, attr) for owner, attr, _ in spans if inspect.isclass(owner)]
    return [
        (a.__name__, b.__name__, attr)
        for k, (a, attr) in enumerate(classes)
        for b, other in classes[k + 1 :]
        if attr == other and (issubclass(a, b) or issubclass(b, a))
    ]


def test_every_entry_resolves_to_a_callable():
    for owner, attr, name in SPANS:
        assert callable(getattr(owner, attr, None)), (owner, attr)
        assert name.count(".") == 1, name


def test_the_table_is_bench_spans_plus_the_added_boundaries():
    assert len(set(SPANS)) == len(SPANS)
    assert set(SPANS) == set(BENCH_SPANS) | ADDED
    assert not ADDED & set(BENCH_SPANS)


def test_no_wrapped_owner_is_another_or_its_subclass():
    assert nested_owners(SPANS) == []


def test_the_owner_check_fails_on_a_subclass_and_on_a_repeat():
    class SubTable(LinkStateTable):
        pass

    sub = (SubTable, "update_row", "linkstate.update_row")
    assert nested_owners([*SPANS, sub]) == [("LinkStateTable", "SubTable", "update_row")]
    repeat = (DatagramTransport, "send", "transport.send")
    assert nested_owners([*SPANS, repeat]) == [
        ("DatagramTransport", "DatagramTransport", "send")
    ]
