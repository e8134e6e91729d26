import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    crown_curve,
    crown_union,
    folded_rhombus_curve,
    near_axis_seven_gon,
    pack_as_pivots,
    regular_polygon_curve,
    replayed_cells,
)
from rhombidome import cobordism
from rhombidome.cobordism import (
    FixBudgetExceededError,
    NotClosedError,
    PlanarizeBudgetError,
    RhombusBudgetError,
    SearchFailedError,
    _local_bridge,
    apply_pivot,
    pack,
    pentagon_split,
    planarize,
    reduce_to_rhombi,
    steinitz_order,
)
from rhombidome.curve import (
    IntegralCurve,
    InvalidCurveError,
    component_plane,
    is_planar,
    random_integral_curve,
)
from rhombidome.geom import EPS
from rhombidome.surface import (
    NotOnPivotCircleError,
    PackMove,
    PentagonMove,
    PivotMove,
    Replayer,
    ReplayMismatchError,
    SplitMove,
    _check_unit_cycle,
    assemble_from_ledger,
    component_budget,
)


def max_prefix_norm(vectors, order):
    acc = np.zeros(vectors.shape[1])
    worst = 0.0
    for idx in order:
        acc = acc + vectors[idx]
        worst = max(worst, float(np.linalg.norm(acc)))
    return worst


# ---------------------------------------------------------------------------
# pivots


def test_apply_pivot_square_to_doubled_path(unit_square):
    new_curve, move = apply_pivot(unit_square, 0, 1, np.array([0.0, 1.0, 0.0]))
    assert move is not None
    assert np.allclose(new_curve.components[0][1], [0, 1, 0])
    # the cell replay derives for the pivot is the original unit square
    state = Replayer(unit_square)
    state.apply(move)
    (cell,) = replayed_cells(state, "rhombus_cells")
    assert np.array_equal(cell,
                          [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    _check_unit_cycle(cell, "rhombus", 4)


def test_apply_pivot_noop(unit_square):
    same, move = apply_pivot(unit_square, 0, 1, unit_square.components[0][1])
    assert move is None
    assert np.array_equal(same.components[0], unit_square.components[0])


def test_apply_pivot_rejects_off_circle(unit_square):
    with pytest.raises(NotOnPivotCircleError):
        apply_pivot(unit_square, 0, 1, np.array([1.5, 0.0, 0.0]))


@pytest.mark.parametrize("target, side", [
    ([1.5, 0.0, 0.0], "1.5"), ([0.0, 0.0, 1.0], "1.7320508075688772"),
    ([np.nan, 1.0, 0.0], "nan")], ids=["prev", "next", "nan"])
def test_replay_pivot_names_the_neighbour_distance(unit_square, target, side):
    # the neighbour checked first is the previous vertex; NaN fails
    move = PivotMove(0, 1, np.array(target), "pivot")
    with pytest.raises(NotOnPivotCircleError,
                       match=f"^pivot target at distance {side} from a neighbour$"):
        Replayer(unit_square).apply(move)


@pytest.mark.parametrize("z, side, end", [
    ([0.5, 0.0, 0.0], "0.5", "vertex 0"), ([1.0, 1.0, 0.0], "2.23606797749979", "vertex 3"),
    ([np.nan, 0.0, 0.0], "nan", "vertex 0")], ids=["v0", "v3", "nan"])
def test_replay_split_names_the_bridge_distance(z, side, end):
    # the bridge joins vertex 0 and vertex 3 (here 2 apart, so only the origin
    # qualifies); vertex 0 is checked first, NaN fails, and nothing changes
    h = np.sqrt(3.0) / 2.0
    hexagon = IntegralCurve([np.array([[1.0, 0.0, 0.0], [0.5, h, 0.0], [-0.5, h, 0.0],
                                       [-1.0, 0.0, 0.0], [-0.5, -h, 0.0], [0.5, -h, 0.0]])])
    state = Replayer(hexagon)
    with pytest.raises(ReplayMismatchError,
                       match=f"^split bridge at distance {side} from {end}$"):
        state.apply(SplitMove(0, 1, np.array(z)))
    assert list(state.components) == [0] and state.moves == []
    state.apply(SplitMove(0, 1, np.zeros(3)))
    assert [len(c) for c in state.components.values()] == [5, 5]


# ---------------------------------------------------------------------------
# planarize


def test_planarize_identity_on_planar(unit_square):
    flat, moves = planarize(unit_square)
    assert moves == []
    assert np.array_equal(flat.components[0], unit_square.components[0])


def test_planarize_folded_rhombus():
    folded = folded_rhombus_curve()
    flat, moves = planarize(folded)
    assert is_planar(flat) is not None
    assert len(moves) <= 6  # C(4, 2)


def test_planarize_random_curves_within_budget():
    rng = np.random.default_rng(10)
    for trial in range(10):
        n = int(rng.integers(6, 15))
        curve = random_integral_curve(n, rng)
        flat, moves = planarize(curve)
        assert len(moves) <= n * (n - 1) // 2
        plane = component_plane(flat.components[0])
        assert plane is not None
        flat.validate()


def test_planarize_keeps_farthest_pair_fixed():
    rng = np.random.default_rng(11)
    curve = random_integral_curve(9, rng)
    from rhombidome.curve import farthest_vertex_pair

    iv, iw = farthest_vertex_pair(curve.components[0])
    flat, moves = planarize(curve)
    assert np.array_equal(flat.components[0][iv], curve.components[0][iv])
    assert np.array_equal(flat.components[0][iw], curve.components[0][iw])


def test_planarize_each_pivot_descends():
    # every move drops the pivoted vertex to at most its lower neighbour's
    # height, which is what the C(n, 2) budget rests on
    from rhombidome.cobordism import _best_plane_through
    from rhombidome.curve import farthest_vertex_pair

    rng = np.random.default_rng(16)
    for _ in range(5):
        curve = random_integral_curve(int(rng.integers(6, 14)), rng)
        comp = curve.components[0]
        iv, iw = farthest_vertex_pair(comp)
        plane = _best_plane_through(comp, iv, iw)
        _, moves = planarize(curve)
        work = comp.copy()
        n = len(work)
        for move in moves:
            heights = np.abs((work - plane.base) @ plane.normal)
            h_old = heights[move.vertex]  # the old point is the replayed vertex
            h_new = abs(float(np.dot(np.subtract(move.new_point, plane.base), plane.normal)))
            h_prev = heights[(move.vertex - 1) % n]
            h_next = heights[(move.vertex + 1) % n]
            # replacement height is bounded by the path predecessor, which is
            # one of the two neighbours; both sit at or below the old height
            assert h_new <= max(h_prev, h_next) + 1e-12
            assert h_new < h_old
            work[move.vertex] = move.new_point


def test_rhombus_budget_overrun_is_not_a_planarize_error(monkeypatch):
    # a regular pentagon takes 2 rhombi; a budget of 1 is overrun after the peel
    monkeypatch.setattr(cobordism, "component_budget", lambda n: 1)
    with pytest.raises(RhombusBudgetError) as caught:
        reduce_to_rhombi(regular_polygon_curve(5))
    assert not isinstance(caught.value, PlanarizeBudgetError)
    assert str(caught.value) == "component 0 used 2 rhombi, budget 1"


def test_fallback_packs_again_when_its_peel_stops(monkeypatch):
    # every second bridge of the fallback is withheld, so each round peels one
    # pentagon and the crown's remainder is packed again, 12 -> 5 in 7 rounds
    from rhombidome.surface import validate_ledger

    bridge, packs, asked = cobordism._local_bridge, [], []

    def one_per_round(points, v, i, normal=None):
        if normal is None:
            return bridge(points, v, i)
        asked.append(i)
        return None if len(asked) % 2 == 0 else bridge(points, v, i, normal)

    pack_component = cobordism._pack_component
    monkeypatch.setattr(cobordism, "_local_bridge", one_per_round)
    monkeypatch.setattr(cobordism, "_pack_component",
                        lambda state, cid: packs.append(cid) or pack_component(state, cid))
    ledger = reduce_to_rhombi(crown_curve(12))
    assert packs == [0] * 7
    assert validate_ledger(ledger).passed


def test_planarize_budget_error_names_the_vertex():
    # the chair hexagon of the unit cube; its path 2 .. 5 climbs to z = 1, and
    # the first pivot, of vertex 3, already overruns a budget of 0
    from rhombidome.cobordism import _flatten_path
    from rhombidome.geom import Plane

    chair = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1], [0, 1, 1], [0, 0, 1.0]])
    state = Replayer(IntegralCurve([chair]))
    plane = Plane(base=[0.0, 0.0, 0.0], normal=[0.0, 0.0, 1.0])
    with pytest.raises(PlanarizeBudgetError) as caught:
        _flatten_path(state, 0, [2, 3, 4, 5], plane, budget=0)
    assert str(caught.value) == (
        "planarize exceeded its move budget of 0 at component 0 vertex 3 (1, 1, 1);"
        " path heights before, at and after it 0, 1, 1")
    assert state.moves == []


# ---------------------------------------------------------------------------
# bounded-prefix ordering


def test_steinitz_identity_for_opposite_pair():
    vectors = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert list(steinitz_order(vectors)) == [0, 1]


def test_steinitz_cross_vectors_vs_exhaustive():
    vectors = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
    order = steinitz_order(vectors)
    got = max_prefix_norm(vectors, order)
    best = min(max_prefix_norm(vectors, p)
               for p in itertools.permutations(range(4)))
    assert best <= np.sqrt(2.0) + 1e-12
    assert got <= 2.0 + 1e-9
    assert sorted(order) == [0, 1, 2, 3]


def test_steinitz_hexagon_vs_exhaustive():
    ang = np.pi / 3.0 * np.arange(6)
    vectors = np.column_stack([np.cos(ang), np.sin(ang)])
    order = steinitz_order(vectors)
    assert max_prefix_norm(vectors, order) <= 2.0 + 1e-9
    best = min(max_prefix_norm(vectors, p)
               for p in itertools.permutations(range(6)))
    assert best <= 2.0


def test_steinitz_rejects_open_chain():
    with pytest.raises(NotClosedError):
        steinitz_order(np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_steinitz_fallback_searchers_directly():
    # the elimination fallback is the proof of the bound 2, so it must hold on
    # any closed set, including those the first-fit pass handles itself
    from rhombidome.cobordism import _elimination_order

    def polygon(k):
        return _unit(2.0 * np.pi * np.arange(k) / k)

    square = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    lattice = np.repeat(square, 10, axis=0)[np.random.default_rng(0).permutation(40)]
    digon = np.array([[1.0, 0.0]] * 3 + [[-1.0, 0.0]] * 3)
    for vectors in (polygon(12), polygon(200), digon, lattice):
        order = _elimination_order(vectors)
        assert sorted(order) == list(range(len(vectors)))
        assert max_prefix_norm(vectors, order) <= 2.0 + 1e-9


def test_steinitz_random_planar_curves():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(4, 20))
        curve = random_integral_curve(n, rng)
        flat, _ = planarize(curve)
        v = flat.components[0]
        plane = component_plane(v)
        basis = np.linalg.svd(np.eye(3) - np.outer(plane.normal, plane.normal))[0][:, :2]
        vecs = (np.roll(v, -1, axis=0) - v) @ basis
        order = steinitz_order(vecs)
        assert max_prefix_norm(vecs, order) <= 2.0 + 1e-9
        assert sorted(order) == list(range(n))


def _unit(angles):
    angles = np.asarray(angles, dtype=float)
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _closed(vectors):
    """``vectors`` followed by unit vectors that bring their sum back to 0."""
    parts = [vectors]
    rest = -vectors.sum(axis=0)
    while np.linalg.norm(rest) > 2.0:
        step = rest / np.linalg.norm(rest)
        parts.append(step[None, :])
        rest = rest - step
    half = 0.5 * rest
    length = float(np.linalg.norm(half))
    perp = np.array([-half[1], half[0]]) / length if length > 0 else np.array([1.0, 0.0])
    rise = np.sqrt(max(0.0, 1.0 - length * length)) * perp
    parts.append(np.array([half + rise, half - rise]))
    return np.vstack(parts)


_ANGLES = st.lists(st.floats(0.0, 2.0 * np.pi), min_size=1, max_size=10)


@st.composite
def closed_unit_vectors(draw):
    """Closed unit plane vectors: random angles closed by two or more unit
    vectors, 60- and 90-degree lattice pairs and triangles, and backtrack
    pairs, in a drawn order."""
    parts = []
    for kind in draw(st.lists(st.sampled_from(["angles", "lattice", "backtrack"]),
                              min_size=1, max_size=3)):
        if kind == "angles":
            parts.append(_closed(_unit(draw(_ANGLES))))
        elif kind == "lattice":
            sides = draw(st.sampled_from([4, 6]))
            dirs = draw(st.lists(st.integers(0, sides - 1), min_size=1, max_size=8))
            steps = [d for i in dirs for d in (i, i + sides // 2)]
            if sides == 6:
                steps += [d for i in draw(st.lists(st.integers(0, 1), max_size=3))
                          for d in (i, i + 2, i + 4)]
            parts.append(_unit(2.0 * np.pi * np.array(steps) / sides))
        else:
            angles = np.array(draw(_ANGLES))
            parts.append(_unit(np.column_stack([angles, angles + np.pi]).ravel()))
    vectors = np.vstack(parts)
    return vectors[draw(st.permutations(range(len(vectors))))]


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(closed_unit_vectors())
def test_steinitz_order_property(vectors):
    # the elimination fallback is checked too: no drawn input reaches it
    from rhombidome.cobordism import _elimination_order

    for order in (steinitz_order(vectors), _elimination_order(vectors)):
        assert sorted(order) == list(range(len(vectors)))
        assert max_prefix_norm(vectors, order) <= 2.0 + 1e-9
    # first fit within 2 keeps an order that already qualifies
    identity = np.arange(len(vectors))
    if max_prefix_norm(vectors, identity) <= 2.0 + EPS:
        assert np.array_equal(steinitz_order(vectors), identity)



def exhaustive_first_fit(vectors):
    """First fit as a full scan: every remaining vector's new prefix norm,
    then the first within the bound, or else the first least."""
    pts, order = vectors.tolist(), []
    remaining, back = list(range(len(pts))), [0.0] * vectors.shape[1]
    while remaining:
        norms = [math.dist(pts[i], back) for i in remaining]
        j = next((k for k, r in enumerate(norms) if r <= 2.0 + EPS), None)
        if j is None:
            j = norms.index(min(norms))
        i = remaining.pop(j)
        back = [b - x for b, x in zip(back, pts[i])]
        order.append(i)
    return order


@st.composite
def fans(draw):
    """Unit vectors at angles a and -a, then k each at +-(pi/2 + b1) and
    +-(pi/2 + b2) that close them, in a drawn order: for small a and large
    k no third vector keeps the prefix within 2, and the least new prefix
    is at the larger of b1 and b2."""
    a, k = draw(st.floats(0.0, 0.2)), draw(st.integers(6, 12))
    sin_b1 = draw(st.floats(0.1, 0.9)) * math.cos(a) / k
    bs = (math.asin(sin_b1), math.asin(math.cos(a) / k - sin_b1))
    rest = _unit([sign * (0.5 * np.pi + b) for b in bs for sign in (1.0, -1.0)] * k)
    return np.vstack([_unit([a, -a]), rest[draw(st.permutations(range(4 * k)))]])


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.one_of(closed_unit_vectors(), fans()))
def test_first_fit_stops_at_the_first_vector_within_the_bound(vectors):
    assert cobordism._first_fit_order(vectors).tolist() == exhaustive_first_fit(vectors)


# ---------------------------------------------------------------------------
# pack


def test_pack_identity_when_already_packed(regular_pentagon):
    # an identity order records nothing and moves nothing
    packed, moves = pack(regular_pentagon)
    assert moves == []
    assert np.array_equal(packed.components[0], regular_pentagon.components[0])


def test_pack_hexagon_boundary_case(regular_hexagon):
    packed, moves = pack(regular_hexagon)
    v = packed.components[0]
    assert float(np.max(np.linalg.norm(v - v[0], axis=1))) <= 2.0 + 1e-9


def test_pack_random_curves():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(6, 16))
        curve = random_integral_curve(n, rng)
        flat, _ = planarize(curve)
        packed, moves = pack(flat)
        v = packed.components[0]
        assert float(np.max(np.linalg.norm(v - v[0], axis=1))) <= 2.0 + 1e-9
        # one pack move, which bubble sort realizes in at most C(n, 2) swaps
        assert all(isinstance(move, PackMove) for move in moves) and len(moves) <= 1
        state = Replayer(flat)
        for move in moves:
            state.apply(move)
        assert state.stats()["pack_moves"] == len(state.rhombus_cells) <= n * (n - 1) // 2
        assert np.array_equal(state.final_curve().components[0], v)
        packed.validate()


def test_pack_requires_planar():
    folded = folded_rhombus_curve()
    with pytest.raises(ValueError):
        pack(folded)



def test_pack_postcondition_names_the_vertex(monkeypatch):
    # with the identity order nothing is packed: the regular 12-gon's vertex 3
    # lies sqrt(2) times its circumradius, 2.73..., from vertex 0
    monkeypatch.setattr(cobordism, "steinitz_order", lambda vectors: np.arange(len(vectors)))
    with pytest.raises(SearchFailedError,
                       match=r"^packing postcondition violated at component 0 vertex 3 \(.+\):"
                             r" radius 2\.7320508\d* from vertex 0 exceeds 2$"):
        pack(regular_polygon_curve(12))

def test_pack_permutes_the_edge_vectors():
    rng = np.random.default_rng(17)
    for _ in range(5):
        curve = random_integral_curve(int(rng.integers(6, 14)), rng)
        flat, _ = planarize(curve)
        packed, _ = pack(flat)
        before = np.roll(flat.components[0], -1, axis=0) - flat.components[0]
        after = np.roll(packed.components[0], -1, axis=0) - packed.components[0]
        # the packed curve's edges are the same vectors, reordered
        used = set()
        for vec in after:
            match = None
            for j, ref in enumerate(before):
                if j not in used and np.linalg.norm(vec - ref) < 1e-9:
                    match = j
                    break
            assert match is not None
            used.add(match)


def _pack_parity_curves():
    # random curves peel locally; the crowns take the pack
    for n in (6, 24, 96):
        for seed in range(5):
            yield random_integral_curve(n, np.random.default_rng(seed))
    for k in (12, 14, 16, 20, 24, 48):
        for height in (0.1, 0.3):
            yield crown_curve(k, height)
    rng = np.random.default_rng(12)
    yield IntegralCurve([random_integral_curve(m, rng).components[0] + [10.0 * i, 0, 0]
                         for i, m in enumerate((3, 4, 7))]
                        + [crown_curve().components[0] + [30.0, 0, 0]])


def test_pack_move_replays_as_its_pivots():
    # the pack replay against the reference expansion into recorded pivots:
    # same stats, the same cells bit for bit and in order, the same final curve
    from rhombidome.surface import validate_ledger

    packs = 0
    for curve in _pack_parity_curves():
        ledger = reduce_to_rhombi(curve)
        expanded = pack_as_pivots(ledger)
        packs += sum(isinstance(m, PackMove) for m in ledger.moves)
        assert not any(isinstance(m, PackMove) for m in expanded.moves)
        replays = []
        for record in (ledger, expanded):
            state = Replayer(record.initial)
            for move in record.moves:
                state.apply(move)
            replays.append(state)
            assert validate_ledger(record).passed
        a, b = replays
        assert a.stats() == b.stats() == ledger.stats
        for name in ("rhombus_cells", "triangles", "rhombi"):
            assert ([np.array(cell).tobytes() for cell in replayed_cells(a, name)]
                    == [np.array(cell).tobytes() for cell in replayed_cells(b, name)])
        assert ([c.tobytes() for c in a.final_curve().components]
                == [c.tobytes() for c in b.final_curve().components])
    assert packs > 10


# ---------------------------------------------------------------------------
# pentagon base case


def _assert_split_replays(pentagon, split):
    """The split's fixes and its apex replay into two unit rhombi and one
    unit triangle, which consume the pentagon."""
    state = Replayer(IntegralCurve([pentagon]))
    for fix in split.fixes:
        assert fix.component == 0 and fix.stage == "fix"
        state.apply(fix)
    state.apply(PentagonMove(0, split.apex))
    assert state.components == {}
    assert len(state.rhombi) == 2 and len(state.triangles) == 1
    triangles = replayed_cells(state, "triangles")
    for cell in replayed_cells(state, "rhombi") + triangles:
        _check_unit_cycle(cell, "cell", len(cell))
    assert np.array_equal(triangles[0][2], split.apex)


def test_pentagon_split_regular(regular_pentagon):
    split = pentagon_split(regular_pentagon.components[0])
    assert split.fixes == []
    _assert_split_replays(regular_pentagon.components[0], split)
    # apex height above the pentagon plane matches the closed-form value
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    s = 0.5 * (golden + 1.0 + golden)
    area = np.sqrt(s * (s - golden) * (s - 1.0) * (s - golden))
    circum = golden * golden / (4.0 * area)
    want = np.sqrt(1.0 - circum * circum)
    assert abs(split.apex[2]) == pytest.approx(want, abs=1e-6)
    assert abs(split.apex[2]) == pytest.approx(0.5257311121, abs=1e-6)


def _flat_triangle_pentagon() -> np.ndarray:
    """A unit pentagon with |v0 v2| = |v0 v3| = 1.95, so that
    circumradius(v0, v2, v3) > 1."""
    leg = 1.95
    v0 = np.array([0.0, 0.0, 0.0])
    v2 = np.array([leg, 0.5, 0.0])
    v2 = v0 + leg * v2 / np.linalg.norm(v2)
    # rotate v2 about v0 so that |v2 v3| = 1 with |v0 v3| = leg
    gamma = 2.0 * np.arcsin(0.5 / leg)
    rot = np.array([[np.cos(gamma), -np.sin(gamma), 0],
                    [np.sin(gamma), np.cos(gamma), 0], [0, 0, 1]])
    v3 = rot @ v2
    v1 = _isoceles_between(v0, v2)
    v4 = _isoceles_between(v3, v0)
    return np.vstack([v0, v1, v2, v3, v4])


def test_pentagon_split_flat_triangle_needs_fixes():
    pentagon = _flat_triangle_pentagon()
    lengths = np.linalg.norm(np.roll(pentagon, -1, axis=0) - pentagon, axis=1)
    assert np.allclose(lengths, 1.0, atol=1e-9)
    from rhombidome.geom import circumradius

    assert circumradius(*pentagon[[0, 2, 3]].tolist()) >= 1.0
    split = pentagon_split(pentagon)
    assert 1 <= len(split.fixes) <= 3
    _assert_split_replays(pentagon, split)


def _isoceles_between(a, b):
    mid = 0.5 * (a + b)
    d = b - a
    gap = np.linalg.norm(d)
    perp = np.array([-d[1], d[0], 0.0]) / gap
    return mid + np.sqrt(1.0 - 0.25 * gap * gap) * perp


def test_pentagon_split_apex_on_positive_side(regular_pentagon):
    split = pentagon_split(regular_pentagon.components[0])
    p = regular_pentagon.components[0]
    normal = np.cross(p[2] - p[0], p[3] - p[0])
    assert float(np.dot(split.apex - p[0], normal)) > 0


def _assert_rows(points):
    """Each point is a row: a list of three Python floats."""
    for q in points:
        assert type(q) is list and len(q) == 3
        assert all(type(x) is float for x in q)


def test_public_entry_points_take_arrays_and_rows(regular_pentagon, unit_square):
    # pentagon_split and apply_pivot convert their input once: an array and
    # its rows give equal results, and what they record is rows
    for pentagon in (regular_pentagon.components[0], _flat_triangle_pentagon()):
        split = pentagon_split(pentagon)
        assert split == pentagon_split(pentagon.tolist())
        _assert_rows([split.apex] + [fix.new_point for fix in split.fixes])
    assert split.fixes  # the flat triangle's
    target = np.array([0.0, 1.0, 0.0])
    from_array, move = apply_pivot(unit_square, 0, 1, target)
    from_rows, same = apply_pivot(unit_square, 0, 1, target.tolist())
    assert move == same
    assert np.array_equal(from_array.components[0], from_rows.components[0])
    _assert_rows([move.new_point])


def test_pentagon_split_rejects_bad_sides(regular_pentagon):
    good = regular_pentagon.components[0]
    nan = good.copy()
    nan[2, 0] = np.nan  # a NaN side must fail here, not later as a rhombus side
    with pytest.raises(ValueError, match="pentagon side 1 "):
        pentagon_split(nan)
    lifted = good.copy()
    lifted[1, 2] += 0.5
    with pytest.raises(ValueError, match="pentagon side 0 "):
        pentagon_split(lifted)
    with pytest.raises(ValueError, match="pentagon needs exactly 5 vertices"):
        pentagon_split(good[:4])


def test_fix_budget_error_names_the_pentagon():
    # a planar pentagon with v1 = v4 and |v0 v2| = 2: no apex opens within
    # three fixes
    pentagon = [[2.0, 0.0, 0.0], [2.0, 1.0, 0.0], [2.0, 2.0, 0.0],
                [2.0, 1.5, -np.sqrt(3) / 2], [2.0, 1.0, 0.0]]
    with pytest.raises(FixBudgetExceededError) as caught:
        pentagon_split(pentagon)
    assert str(caught.value).endswith(
        " on the pentagon (2, 0, 0), (2, 1, 0), (2, 2, 0), (2, 1.5, -0.866025403784),"
        " (2, 1, 0)")


# ---------------------------------------------------------------------------
# full reduction


def test_reduce_triangle(unit_triangle):
    ledger = reduce_to_rhombi(unit_triangle)
    chain = assemble_from_ledger(ledger)
    assert len(chain.triangles) == 1
    assert len(chain.rhombi) == 0
    assert ledger.stats["k"] == 0
    assert ledger.final_curve.components == []


def test_reduce_rhombus_identity(unit_square):
    ledger = reduce_to_rhombi(unit_square)
    (rhombus,) = assemble_from_ledger(ledger).rhombi
    assert ledger.stats["k"] == 1
    assert len(ledger.moves) == 1
    # derived with reversed orientation relative to the curve
    assert np.array_equal(rhombus,
                          unit_square.components[0][[0, 3, 2, 1]])


def test_reduce_regular_pentagon(regular_pentagon):
    ledger = reduce_to_rhombi(regular_pentagon)
    assert ledger.stats == {**ledger.stats, "k": 2, "planarize_moves": 0,
                            "pack_moves": 0, "splits": 0, "fixes": 0}
    chain = assemble_from_ledger(ledger)
    assert len(chain.rhombi) == 2
    assert len(chain.triangles) == 1


@pytest.mark.parametrize("turned", [False, True], ids=["planar", "rotated"])
def test_reduce_regular_hexagon(turned):
    # every window spans 2 up to an ulp, so none peels locally; the packed
    # fallback peels one, its bridge at the centre where the circle shrinks
    from rhombidome.surface import validate_ledger

    curve = regular_polygon_curve(6)
    if turned:
        q, _ = np.linalg.qr(np.random.default_rng(6).normal(size=(3, 3)))
        curve = IntegralCurve([curve.components[0] @ q.T])
    ledger = reduce_to_rhombi(curve)
    assert ledger.stats["splits"] == 1
    assert validate_ledger(ledger).passed


def test_reduce_multicomponent():
    tri = np.array([[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0.0]])
    rng = np.random.default_rng(14)
    loop = random_integral_curve(7, rng).components[0] + np.array([5.0, 0, 0])
    curve = IntegralCurve([tri, loop])
    ledger = reduce_to_rhombi(curve)
    assert ledger.final_curve.components == []
    rows = ledger.stats["per_component"]
    assert [row["edges"] for row in rows] == [3, 7]
    for row in rows:
        assert row["rhombi_used"] <= row["budget"]


def test_stats_count_the_recorded_moves(unit_triangle, unit_square):
    # the producer and the checker both take the stats from the replay, so
    # they are pinned here against a direct count of the recorded moves; the
    # crown takes every stage
    crown = crown_curve().components[0]
    curve = IntegralCurve([unit_triangle.components[0], crown + np.array([5.0, 0, 0]),
                           unit_square.components[0] + np.array([-5.0, 0, 0])])
    ledger = reduce_to_rhombi(curve)
    stats = ledger.stats
    # each pack swap is counted as a pivot of stage pack, as if recorded
    kinds = Counter(getattr(m, "stage", m.kind) for m in pack_as_pivots(ledger).moves)
    assert any(isinstance(m, PackMove) for m in ledger.moves)
    assert kinds["split"] > 0 and kinds["pack"] > 0
    assert kinds["planarize"] > 0 and kinds["fix"] > 0
    assert stats == {
        "n": 19, "k": stats["k"], "budget": component_budget(12) + 1,
        "planarize_moves": kinds["planarize"], "pack_moves": kinds["pack"],
        "splits": kinds["split"], "fixes": kinds["fix"],
        "per_component": [
            {"component": 0, "edges": 3, "rhombi_used": 0, "budget": 0},
            {"component": 1, "edges": 12, "rhombi_used": stats["k"] - 1,
             "budget": component_budget(12)},
            {"component": 2, "edges": 4, "rhombi_used": 1, "budget": 1}]}


def test_reduce_rejects_short_component():
    with pytest.raises(InvalidCurveError):
        reduce_to_rhombi(IntegralCurve([np.array([[0, 0, 0], [1, 0, 0.0]])]))


def test_reduce_replay_is_bitwise():
    rng = np.random.default_rng(15)
    curve = random_integral_curve(11, rng)
    ledger = reduce_to_rhombi(curve)
    replay = Replayer(ledger.initial)
    for move in ledger.moves:
        replay.apply(move)
    final = replay.final_curve()
    assert len(final.components) == len(ledger.final_curve.components) == 0


def test_reduce_k_within_a_sixth_of_budget():
    # a local peel needs no pack; where the crown takes the fallback, the
    # first-fit Steinitz order has few inversions, so few pack pivots
    rng = np.random.default_rng(1)
    for curve in [random_integral_curve(48, rng) for _ in range(5)] + [crown_curve(48)]:
        ledger = reduce_to_rhombi(curve)
        assert ledger.stats["k"] <= ledger.stats["budget"] // 6


# The rows of ``census --n-min 5 --n-max 80 --samples 3 --seed 0`` whose
# remainder no local peel takes
_FALLBACK_CENSUS_INSTANCES = ((136000408, 50), (164000492, 59), (177000531, 64),
                              (211000633, 75), (215000645, 76))


def test_decisions_ignore_last_bit_noise():
    # moving every coordinate by one ulp keeps every decision, the first-fit
    # test included: it compares within EPS, as every other predicate does.
    # The census instances (seed, n) at the end hand a remainder to the
    # fallback, and so run first fit.
    curves = [random_integral_curve(n, np.random.default_rng(seed))
              for n in range(6, 61, 3) for seed in range(5)]
    curves += [random_integral_curve(n, np.random.default_rng(seed))
               for seed, n in _FALLBACK_CENSUS_INSTANCES]
    for i, curve in enumerate(curves):
        stats = reduce_to_rhombi(curve).stats
        if i >= len(curves) - len(_FALLBACK_CENSUS_INSTANCES):
            assert stats["pack_moves"] > 0, i
        for toward in (np.inf, -np.inf):
            moved = IntegralCurve([np.nextafter(c, toward) for c in curve.components])
            assert reduce_to_rhombi(moved).stats == stats, (i, toward)


def test_local_bridge_is_unit_near_the_axis_and_up_to_span_two():
    # the midpoint m of v1 and v2 lies 2 EPS ... 1e-8 across the axis v3 - v0
    # and far along it, and the span runs up to 2 + EPS, the widest window a
    # packed remainder peels, where the circle of bridges shrinks to its centre
    rng = np.random.default_rng(28)
    for trial in range(300):
        p, axis, across = rng.normal(size=(3, 3))
        axis /= np.linalg.norm(axis)
        across -= (across @ axis) * axis
        across /= np.linalg.norm(across)
        span = rng.uniform(0.1, 2.0) if trial % 3 else 2.0 + rng.uniform(0.0, EPS)
        s = p + span * axis
        m = p + rng.uniform(-1.0, 3.0) * axis + rng.uniform(2 * EPS, 1e-8) * across
        half = rng.normal(size=3)
        points = [p.tolist(), (m + half).tolist(), (m - half).tolist(), s.tolist()]
        z = _local_bridge(points, [0, 1, 2, 3], 0)
        assert z is not None, trial
        assert abs(np.linalg.norm(np.subtract(z, points[0])) - 1.0) <= EPS, trial
        assert abs(np.linalg.norm(np.subtract(z, points[3])) - 1.0) <= EPS, trial


def test_local_bridge_takes_the_plane_when_no_point_is_farthest():
    # m lies on the axis, so every point of the circle is as far from it
    points = [[0.0, 0.0, 0.0], [0.3, 0.5, 0.0], [0.3, -0.5, 0.0], [1.5, 0.0, 0.0]]
    assert _local_bridge(points, [0, 1, 2, 3], 0) is None
    z = _local_bridge(points, [0, 1, 2, 3], 0, [0.0, 0.0, 1.0])
    assert z == [0.75, -np.sqrt(1.0 - 0.75 ** 2), 0.0]  # along axis x normal = -y


def test_reduce_window_near_its_axis():
    # the tightest window's m lies within 1e-8 of its axis, off its centre;
    # bridges taken by subtracting c - m's part along the axis came out up
    # to 1e-7 off unit distance, and the replay refused the split
    from scipy.spatial.transform import Rotation
    from rhombidome.surface import validate_ledger

    turns = Rotation.random(20, random_state=3).as_matrix()
    for delta in (1.5e-9, 3e-9, 1e-8):
        for turn in turns:
            ledger = reduce_to_rhombi(IntegralCurve([near_axis_seven_gon(delta) @ turn.T]))
            assert validate_ledger(ledger).passed, delta


def test_component_budget_values():
    assert component_budget(3) == 0
    assert component_budget(4) == 1
    assert component_budget(5) == 23
    assert component_budget(6) == 36


# ---------------------------------------------------------------------------
# degenerate configurations


def test_apply_pivot_degenerate_derives_no_rhombus():
    a = np.array([0.0, 0.0, 0.0])
    b = np.array([1.0, 0.0, 0.0])
    c = np.array([0.0, 1.0, 0.0])
    d = np.array([-np.sqrt(3) / 2, 0.5, 0.0])
    curve = IntegralCurve([np.vstack([a, b, a, c, d])])
    curve.validate()
    new_curve, move = apply_pivot(curve, 0, 1, np.array([0.0, 0.0, 1.0]))
    assert move is not None
    # both neighbours are a, so replay derives no cell for this pivot
    state = Replayer(curve)
    state.apply(move)
    assert state.rhombus_cells == [] and state.stats()["k"] == 0
    assert np.allclose(new_curve.components[0][1], [0, 0, 1])


def test_reduce_backtracking_pentagon():
    from rhombidome.surface import validate_ledger

    a = np.array([0.0, 0.0, 0.0])
    b = np.array([1.0, 0.0, 0.0])
    c = np.array([0.0, 1.0, 0.0])
    d = np.array([-np.sqrt(3) / 2, 0.5, 0.0])
    curve = IntegralCurve([np.vstack([a, b, a, c, d])])
    ledger = reduce_to_rhombi(curve)
    assert validate_ledger(ledger).passed


def test_reduce_collinear_out_and_back():
    # two length-3 edges out and back: everything is collinear and every
    # pack transposition across a backtrack is a degenerate pivot
    from rhombidome.curve import from_integer_curve
    from rhombidome.surface import validate_ledger

    digon = from_integer_curve([np.array([[0, 0, 0], [3, 0, 0.0]])])
    assert digon.edge_count == 6
    ledger = reduce_to_rhombi(digon)
    replay = Replayer(ledger.initial)
    pack_cells = pack_folds = 0
    for move in ledger.moves:
        cells, folds = len(replay.rhombus_cells), len(replay.folds)
        replay.apply(move)
        if isinstance(move, PackMove):
            pack_cells += len(replay.rhombus_cells) - cells
            pack_folds += len(replay.folds) - folds
    # some swaps of the pack move are degenerate pivots: counted, with a
    # fold and no cell; the half-turn fixes fold too
    assert ledger.stats["pack_moves"] > pack_cells
    assert pack_folds == ledger.stats["pack_moves"] - pack_cells
    chain = assemble_from_ledger(ledger)
    assert len(chain.fold_ids) == len(replay.folds) >= pack_folds
    assert ledger.stats["k"] == len(replay.rhombus_cells) + len(replay.rhombi)
    assert validate_ledger(ledger).passed
    assert ledger.stats["k"] <= 36


def test_reduce_collinear_backtracking_hexagon():
    # a pentagon of it has a vertex whose neighbours coincide, which only a
    # half turn about them moves
    from rhombidome.surface import validate_ledger

    hexagon = IntegralCurve([np.array([[0, 0, 0], [0, -1, 0], [0, 0, 0], [0, -1, 0],
                                       [0, -2, 0], [0, -1, 0]], dtype=float)])
    assert validate_ledger(reduce_to_rhombi(hexagon)).passed


# the unit steps of the cubic lattice and of the planar hexagonal one
_CUBIC_STEPS = np.vstack([np.eye(3), -np.eye(3)])
_HEXAGONAL_STEPS = np.column_stack([np.cos(np.pi / 3 * np.arange(6)),
                                    np.sin(np.pi / 3 * np.arange(6)), np.zeros(6)])


def _walk(steps: np.ndarray) -> np.ndarray:
    """The vertices of the closed walk from the origin along ``steps``, which
    sum to zero."""
    return np.cumsum(np.vstack([np.zeros(3), steps[:-1]]), axis=0)


# Each raised FixBudgetExceededError: the first three until a vertex whose
# neighbours coincide could turn half a turn about them, the 16-step walk
# until the fallback peeled its packed remainder at its tightest windows.
@pytest.mark.parametrize("steps", [
    _CUBIC_STEPS[[1, 4, 0, 0, 3, 3]],
    _HEXAGONAL_STEPS[[1, 5, 5, 2, 4, 3, 2, 3, 0, 0]],
    _CUBIC_STEPS[[2, 2, 5, 2, 5, 3, 0, 2, 5, 2, 5, 5]],
    _CUBIC_STEPS[[0, 4, 1, 0, 1, 2, 1, 5, 2, 4, 5, 4, 3, 4, 1, 3]],
], ids=["cubic_walk", "hexagonal_walk", "out_and_back_walk", "out_and_back_walk_16"])
def test_reduce_lattice_walk_with_coinciding_neighbours(steps):
    from rhombidome.surface import validate_ledger

    assert validate_ledger(reduce_to_rhombi(IntegralCurve([_walk(steps)]))).passed


@pytest.mark.parametrize("curve", [
    crown_union(3),
    IntegralCurve([_walk(_CUBIC_STEPS[[2, 2, 5, 2, 5, 3, 0, 2, 5, 2, 5, 5]])]),
], ids=["crown_union", "out_and_back_walk"])
def test_reduction_records_rows_of_floats(curve):
    points = []
    for move in reduce_to_rhombi(curve).moves:
        points += [getattr(move, name) for name in ("new_point", "z", "apex")
                   if hasattr(move, name)]
    assert points
    _assert_rows(points)


@st.composite
def _component(draw) -> np.ndarray:
    """One closed unit-edge component: a random curve, a cubic or hexagonal
    lattice walk of shuffled step pairs, or an out-and-back walk."""
    kind = draw(st.sampled_from(["random", "cubic", "hexagonal", "out_and_back"]))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        return random_integral_curve(draw(st.integers(3, 20)), rng).components[0]
    lattice = _HEXAGONAL_STEPS if kind == "hexagonal" else _CUBIC_STEPS
    half = lattice[draw(st.lists(st.integers(0, 5), min_size=2, max_size=10))]
    if kind == "out_and_back":
        return _walk(np.vstack([half, -half[::-1]]))
    steps = np.vstack([half, -half])
    return _walk(steps[draw(st.permutations(range(len(steps))))])


@st.composite
def _placed_union(draw) -> IntegralCurve:
    """One or two components, turned by a drawn rotation and then moved by a
    drawn offset of size 0, 1 or 1e2; farther offsets can fail in planarize
    when a remainder takes the fallback (see
    test_planarize_far_translated_curve)."""
    from scipy.spatial.transform import Rotation

    components = draw(st.lists(_component(), min_size=1, max_size=2))
    angles = draw(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=3, max_size=3))
    turn = Rotation.from_euler("zxz", angles).as_matrix()
    offset = draw(st.sampled_from([0.0, 1.0, 1e2])) * np.array(
        draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    return IntegralCurve([c @ turn.T + offset for c in components])


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_placed_union())
def test_reduce_property_every_ledger_validates_and_round_trips(curve):
    import json

    from rhombidome import files
    from rhombidome.surface import validate_ledger

    ledger = reduce_to_rhombi(curve)
    assert validate_ledger(ledger).passed
    text = files.dump_json(files.ledger_to_obj(ledger))
    again = files.ledger_from_obj(json.loads(text))
    assert files.dump_json(files.ledger_to_obj(again)) == text


def _far_translated_curve() -> IntegralCurve:
    """A random n = 24 curve moved by an offset of about 1e6."""
    rng = np.random.default_rng(0)
    curve = random_integral_curve(24, rng)
    offset = rng.uniform(-1, 1, 3) * 1e6
    return IntegralCurve([c + offset for c in curve.components])


def test_reduce_far_translated_curve():
    # every pentagon of this curve peels locally, so it never reaches planarize
    from rhombidome.surface import validate_ledger

    ledger = reduce_to_rhombi(_far_translated_curve())
    assert ledger.stats["planarize_moves"] == ledger.stats["pack_moves"] == 0
    assert validate_ledger(ledger).passed


# Known defect: a remainder that takes the fallback should flatten wherever it
# sits, and is pinned here until it does.
@pytest.mark.xfail(strict=True, raises=PlanarizeBudgetError,
                   reason="planarize's absolute slacks sit near the coordinate ulp")
def test_planarize_far_translated_curve():
    flat, _ = planarize(_far_translated_curve())
    assert all(component_plane(c) is not None for c in flat.components)


def test_reduce_subdivided_triangles():
    from rhombidome.curve import from_integer_curve
    from rhombidome.surface import validate_ledger

    for raw in (np.array([[0, 0, 0], [2, 0, 0], [1, np.sqrt(3), 0.0]]),
                np.array([[0, 0, 0], [3, 0, 0], [3, 4, 0.0]])):
        ledger = reduce_to_rhombi(from_integer_curve([raw]))
        assert validate_ledger(ledger).passed
        assert ledger.stats["k"] <= ledger.stats["budget"]
