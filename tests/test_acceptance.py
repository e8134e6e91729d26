"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  The random corpus is shared by the first few criteria and is
regenerated deterministically from fixed seeds.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import edge_vector_constraint_rows, regular_polygon_curve, segment_counts
from rhombidome import moduli as md
from rhombidome.cobordism import (
    pack,
    pentagon_split,
    planarize,
    reduce_to_rhombi,
    steinitz_order,
)
from rhombidome.curve import component_plane, random_integral_curve
from rhombidome.surface import (
    Replayer,
    assemble_from_ledger,
    catalog,
    collapse,
    hexagon_join,
    validate_ledger,
)

CORPUS_SIZE = 100
N_RANGE = list(range(6, 25))


@dataclass
class CorpusRun:
    curves: list
    ledgers: list
    reports: list
    elapsed: float


@pytest.fixture(scope="module")
def corpus():
    curves = []
    for i in range(CORPUS_SIZE):
        n = N_RANGE[i % len(N_RANGE)]
        rng = np.random.default_rng(10_000 + i)
        curves.append(random_integral_curve(n, rng))
    start = time.perf_counter()
    ledgers = [reduce_to_rhombi(c) for c in curves]
    reports = [validate_ledger(led) for led in ledgers]
    elapsed = time.perf_counter() - start
    return CorpusRun(curves, ledgers, reports, elapsed)


def test_criterion_1_end_to_end_reduction(corpus):
    for curve, ledger, report in zip(corpus.curves, corpus.ledgers, corpus.reports):
        n = curve.edge_count
        assert report.passed, report.entries
        assert ledger.stats["k"] <= n * n + 2 * n - 12
    assert corpus.elapsed <= 10.0, f"corpus took {corpus.elapsed:.2f}s"
    print(f"\nPASS criterion 1: 100 reductions valid, k within budget, "
          f"{corpus.elapsed:.2f}s <= 10s")


def test_criterion_2_planarize(corpus):
    worst_residual = 0.0
    for curve in corpus.curves:
        n = curve.edge_count
        flat, moves = planarize(curve)
        assert len(moves) <= n * (n - 1) // 2
        for comp in flat.components:
            plane = component_plane(comp)
            assert plane is not None
            residual = float(np.max(np.abs((comp - plane.base) @ plane.normal)))
            worst_residual = max(worst_residual, residual)
    assert worst_residual <= 1e-9
    print(f"PASS criterion 2: planarize residual <= {worst_residual:.2e}, "
          f"moves within C(n,2)")


def test_criterion_3_pack(corpus):
    worst_radius = 0.0
    worst_prefix = 0.0
    for curve in corpus.curves:
        n = curve.edge_count
        flat, _ = planarize(curve)
        packed, moves = pack(flat)
        state = Replayer(flat)
        for move in moves:
            state.apply(move)
        assert state.stats()["pack_moves"] <= n * (n - 1) // 2
        v = packed.components[0]
        worst_radius = max(worst_radius,
                           float(np.max(np.linalg.norm(v - v[0], axis=1))))
        # prefix norms of the realized order are the distances from vertex 0;
        # check the abstract order on the flat curve independently too
        comp = flat.components[0]
        plane = component_plane(comp)
        basis = np.linalg.svd(np.eye(3) -
                              np.outer(plane.normal, plane.normal))[0][:, :2]
        vecs = (np.roll(comp, -1, axis=0) - comp) @ basis
        order = steinitz_order(vecs)
        acc = np.zeros(2)
        for idx in order:
            acc = acc + vecs[idx]
            worst_prefix = max(worst_prefix, float(np.linalg.norm(acc)))
    assert worst_radius <= 2.0 + 1e-9
    assert worst_prefix <= 2.0 + 1e-9
    print(f"PASS criterion 3: packing radius <= {worst_radius:.12f}, "
          f"prefix norms <= {worst_prefix:.12f}, moves within C(n,2)")


def test_criterion_4_pentagon_base_case():
    pentagon = regular_polygon_curve(5)
    ledger = reduce_to_rhombi(pentagon)
    assert ledger.stats["k"] == 2
    assert ledger.stats["fixes"] == 0
    chain = assemble_from_ledger(ledger)
    assert len(chain.rhombi) == 2
    assert len(chain.triangles) == 1
    split = pentagon_split(pentagon.components[0])
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    s = 0.5 * (golden + 1.0 + golden)
    area = np.sqrt(s * (s - golden) * (s - 1.0) * (s - golden))
    circum = golden * 1.0 * golden / (4.0 * area)
    want = np.sqrt(1.0 - circum ** 2)
    got = abs(split.apex[2])
    assert got == pytest.approx(want, abs=1e-6)
    print(f"PASS criterion 4: pentagon -> 2 rhombi, 1 triangle, 0 fixes, "
          f"apex height {got:.6f} vs oracle {want:.6f}")


def test_criterion_5_chain_identity(corpus):
    for ledger in corpus.ledgers:
        chain = assemble_from_ledger(ledger)
        cells = list(chain.triangles)
        cells += list(chain.rhombus_cells)
        minus = [c for c in ledger.initial.components]
        minus += list(chain.rhombi)
        assert segment_counts(cells, minus) == {}
    print("PASS criterion 5: chain boundary - (curve + rhombi) is exactly zero "
          "on every ledger")


def test_criterion_6_dimension_counts():
    for k in range(3, 9):
        for seed in range(20):
            rng = np.random.default_rng(600 + 37 * k + seed)
            point = md.random_polygon_point([k], rng)
            assert len(md.polygon_tangent_basis(point)) == 2 * k - 3
    assert len(md.polygon_tangent_basis(md.all_parallel_quad())) == 6
    rng = np.random.default_rng(699)
    tri = md.random_polygon_point([3], rng)
    assert len(md.polygon_tangent_basis(tri)) - len(md.rotation_orbit_basis(tri)) == 0
    print("PASS criterion 6: tangent dims 2k-3 (k=3..8, 20 seeds), "
          "all-parallel 4-gon 6 = 1 + 5, triangle moduli 0")


def test_criterion_7_kernel_identification():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(700 + seed)
        for sizes in ([4 + seed % 3], [4, 4 + seed % 3]):
            point = md.random_polygon_point(sizes, rng)
            kernel = md.symplectic_kernel_basis(point)
            orbit = md.rotation_orbit_basis(point)
            assert len(kernel) == len(orbit) == 3 * len(sizes)
            worst = max(worst, md.subspace_max_angle(kernel, orbit))
    assert worst <= 1e-6
    print(f"PASS criterion 7: kernel == rotation orbit, max principal angle "
          f"{worst:.2e} <= 1e-6")


def test_criterion_8_isotropy():
    worst = 0.0
    for name, k in (("antiprism_band", 4), ("antiprism_band", 5),
                    ("antiprism_band", 6), ("pentagon_pants", None)):
        s = catalog(name, k=k)
        report = md.isotropy_certificate(s, trials=20, seed=800)
        assert report["passed"], report
        worst = max(worst, report["max_rel_pairing"])
    assert worst <= 1e-8
    print(f"PASS criterion 8: pushed-forward pairing <= {worst:.2e} relative "
          f"(bound 1e-8), 20 realizations per surface")


def test_criterion_9_rank_bounds():
    report = md.rank_certificate(catalog("three_rhombus_pants"), seed=900)
    assert report["passed"], report
    assert report["rhombus_moduli_dim"] == 2
    assert report["rank_moduli"]["rank"] <= 3
    assert report["rank_projected"]["rank"] <= 3 < 4
    assert report["rank_moduli"]["gap_factor"] >= 10.0
    assert report["rank_projected"]["gap_factor"] >= 10.0
    print(f"PASS criterion 9: rank mod rotations {report['rank_moduli']['rank']} <= 3, "
          f"projected {report['rank_projected']['rank']} <= 3 < 4, "
          f"gap {report['rank_moduli']['gap_factor']:.1e}x threshold")


def test_criterion_10_collapse_restriction():
    s = catalog("antiprism_band", k=4)
    worst = 0.0
    for seed in range(10):
        realization = md.realize_surface(s, seed=1000 + seed)
        basis = md.surface_tangent_basis(realization)
        for tri_index in range(len(s.triangles)):
            ref = next(r for r in s.triangles[tri_index]
                       if any(r in w for w in s.walks))
            collapsed = collapse(s, tri_index, ref)
            keep = [e for e in range(len(s.edges)) if e != abs(ref) - 1]
            q2 = realization.q[keep]
            linear = edge_vector_constraint_rows(collapsed)
            worst = max(worst, md.surface_constraint_residual(collapsed, realization.x),
                        float(np.max(np.abs(linear @ q2.reshape(-1)))))
            for tangent in basis:
                t2 = tangent[keep]
                ortho = max(abs(float(np.dot(t2[j], q2[j])))
                            for j in range(len(keep)))
                lin = float(np.max(np.abs(linear @ t2.reshape(-1))))
                worst = max(worst, ortho, lin)
    assert worst <= 1e-10
    print(f"PASS criterion 10: restricted realizations/tangents satisfy "
          f"collapsed constraints to {worst:.2e} <= 1e-10")


def test_criterion_11_hexagon_join():
    u = np.array([1.0, 0.0, 0.0])
    w = np.array([0.0, 1.0, 0.0])
    first = np.vstack([np.zeros(3), u, u + w, w])
    axis = (u + w) / np.linalg.norm(u + w)
    skew = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]],
                     [-axis[1], axis[0], 0]])

    def rotation(theta):
        return np.eye(3) + np.sin(theta) * skew + (1 - np.cos(theta)) * (skew @ skew)

    theta = brentq(lambda t: np.linalg.norm(rotation(t) @ u - u) - 1.0,
                   0.1, np.pi - 0.1)
    rot = rotation(theta)
    second = np.vstack([np.zeros(3), rot @ u, rot @ (u + w), rot @ w])
    hexagon, (t1, t2) = hexagon_join(first, second)
    edges = hexagon.components[0]
    lengths = np.linalg.norm(np.roll(edges, -1, axis=0) - edges, axis=1)
    worst = float(np.max(np.abs(lengths - 1.0)))
    assert worst <= 1e-9
    residue = segment_counts(
        [t1, t2],
        [edges, first, second[[0, 3, 2, 1]]])
    assert residue == {}
    print(f"PASS criterion 11: hexagon edges unit to {worst:.2e}, chain "
          f"identity with both triangles is exact")
