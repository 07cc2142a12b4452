"""Structural invariants every recorded span tree must satisfy.

Each child span lies inside its parent, and no duration is negative.
Wire and log trees carry times rounded to 6 decimals (``Span.to_dict``),
so comparing one end of a child against its parent's can be off by two
roundings per side: up to 2 us, which the check allows.
"""

from repro.obs import Trace

#: Largest error of comparing two ends built from 6-decimal-rounded
#: ``start`` and ``dur`` values (0.5 us per rounded term, two per end).
WIRE_ROUNDING = 2e-6


def assert_span_invariants(tree, tol: float = WIRE_ROUNDING) -> None:
    """Assert child ⊆ parent and ``dur >= 0`` on every node of ``tree``.

    ``tree`` is a :class:`~repro.obs.Trace`, its ``to_dict()`` payload
    (``{"id": .., "spans": [..]}``) or one span dict.
    """
    if isinstance(tree, Trace):
        tree = tree.to_dict()
    roots = tree["spans"] if "spans" in tree else [tree]
    assert roots, "span tree has no spans"
    for root in roots:
        _check(root, root["name"], tol)


def _check(node: dict, where: str, tol: float) -> None:
    assert node["dur"] >= 0.0, f"{where}: negative dur {node['dur']}"
    end = node["start"] + node["dur"]
    for child in node.get("children", ()):
        path = f"{where} > {child['name']}"
        assert child["start"] >= node["start"] - tol, (
            f"{path}: starts {node['start'] - child['start']:.3g} s "
            "before its parent"
        )
        overhang = child["start"] + child["dur"] - end
        assert overhang <= tol, (
            f"{path}: ends {overhang:.3g} s past its parent"
        )
        _check(child, path, tol)
