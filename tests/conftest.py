import pytest

from pebbling import families
from pebbling.graph import new_graph


@pytest.fixture
def petersen():
    return families.petersen()


@pytest.fixture
def star3():
    """Star with three leaves, center vertex 0."""
    return families.tree_from_parents([-1, 0, 0, 0])


@pytest.fixture
def binary7():
    """Complete binary tree on 7 vertices, top vertex 0."""
    return families.tree_from_parents([-1, 0, 0, 1, 1, 2, 2])


def small_catalog():
    """(name, graph, known pebbling number) for fast exact tests."""
    return [
        ("path(2)", families.path(2), 2),
        ("path(3)", families.path(3), 4),
        ("path(4)", families.path(4), 8),
        ("path(5)", families.path(5), 16),
        ("cycle(3)", families.cycle(3), 3),
        ("cycle(4)", families.cycle(4), 4),
        ("cycle(5)", families.cycle(5), 5),
        ("cycle(6)", families.cycle(6), 8),
        ("complete(2)", families.complete(2), 2),
        ("complete(3)", families.complete(3), 3),
        ("complete(4)", families.complete(4), 4),
        ("complete(5)", families.complete(5), 5),
        ("hypercube(2)", families.hypercube(2), 4),
        ("hypercube(3)", families.hypercube(3), 8),
    ]


def deep_broom():
    """The path 0..62 with ten leaves on 0.

    Rooted at 0, its spanning tree keeps every weight at or below 2^61, but
    its unit weight is 6 * 2^62 - 1, past the 64-bit limit.
    """
    return new_graph(73, [(v, v + 1) for v in range(62)] + [(0, leaf) for leaf in range(63, 73)])
