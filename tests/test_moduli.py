import json

import numpy as np
import pytest
from scipy.linalg import null_space, qr

from conftest import edge_vector_constraint_rows
from rhombidome import moduli as md
from rhombidome.surface import GraphSurface, catalog, collapse


def loop_edge_rows(vectors: np.ndarray) -> np.ndarray:
    """(K, 3K) rows, one per edge, holding that edge's vector in its three
    columns: the scheme's edge rows, built one edge at a time."""
    count = len(vectors)
    rows = np.zeros((count, 3 * count))
    for j in range(count):
        rows[j, 3 * j:3 * j + 3] = vectors[j]
    return rows


def test_polygon_scheme_dimensions():
    rng = np.random.default_rng(30)
    for k in range(3, 9):
        point = md.random_polygon_point([k], rng)
        scheme = len(md.polygon_tangent_basis(point))
        assert scheme == 2 * k - 3
        orbit = len(md.rotation_orbit_basis(point))
        assert orbit == 3
        assert scheme - orbit == max(2 * k - 6, 0)


def test_all_parallel_quad_is_singular():
    point = md.all_parallel_quad()
    assert len(md.polygon_tangent_basis(point)) == 6  # 1 + (2*4 - 3)
    assert len(md.rotation_orbit_basis(point)) == 2   # axial rotation fixes p


def test_product_dimensions_add():
    rng = np.random.default_rng(31)
    point = md.random_polygon_point([4, 5], rng)
    assert len(md.polygon_tangent_basis(point)) == (2 * 4 - 3) + (2 * 5 - 3)
    assert len(md.rotation_orbit_basis(point)) == 6


def test_pairing_is_skew():
    rng = np.random.default_rng(32)
    point = md.random_polygon_point([5], rng)
    basis = md.polygon_tangent_basis(point)
    coeffs = rng.normal(size=(2, len(basis)))
    t1 = np.tensordot(coeffs[0], basis, axes=1)
    t2 = np.tensordot(coeffs[1], basis, axes=1)
    assert md.symplectic_pairing(point, t1, t1) == pytest.approx(0.0, abs=1e-12)
    forward = md.symplectic_pairing(point, t1, t2)
    backward = md.symplectic_pairing(point, t2, t1)
    assert forward == pytest.approx(-backward, abs=1e-12)


@pytest.mark.parametrize("sizes", [[5], [4, 6]])
def test_pairing_gram_matches_pairwise_reference(sizes):
    rng = np.random.default_rng(36)
    point = md.random_polygon_point(sizes, rng)
    basis = md.polygon_tangent_basis(point)
    p = point.vectors
    len2 = np.sum(p * p, axis=1)
    reference = np.array([[sum(float(np.dot(ta[k], np.cross(tb[k], p[k]))) / len2[k]
                               for k in range(len(p)))
                           for tb in basis] for ta in basis])
    gram = md.pairing_gram(point, basis)
    assert np.max(np.abs(gram - reference)) <= 1e-12
    assert np.array_equal(gram, -gram.T)
    assert np.all(np.diag(gram) == 0.0)
    flat = basis.reshape(len(basis), -1)
    assert np.array_equal(md.pairing_gram(point, flat), gram)
    assert md.symplectic_pairing(point, flat[0], basis[1]) == pytest.approx(
        gram[0, 1], abs=1e-15)


def stacked_scheme_matrix(point: md.PolygonPoint) -> np.ndarray:
    """The (K + 3m, 3K) polygon scheme matrix as a (K, K, 3) edge block
    stacked on ``kron`` closure rows: the construction the in-place one
    replaced."""
    count = len(point.vectors)
    edge_rows = np.zeros((count, count, 3))
    edge_rows[np.arange(count), np.arange(count)] = point.vectors
    closures = np.repeat(np.eye(len(point.sizes)), point.sizes, axis=1)
    sum_rows = np.kron(closures, np.eye(3)) + 0.0  # + 0.0 clears the -0.0 of -1 * 0
    return np.vstack([edge_rows.reshape(count, 3 * count), sum_rows])


def einsum_gram(point: md.PolygonPoint, basis: np.ndarray) -> np.ndarray:
    """The pairing Gram as an ``einsum`` contraction of ``np.cross`` turns."""
    turned = np.cross(basis, point.vectors) / (point.lengths ** 2)[:, None]
    upper = np.triu(np.einsum("aki,bki->ab", basis, turned), 1)
    return upper - upper.T


def _scheme_case(case: str) -> md.PolygonPoint:
    if case == "band16_boundary":
        realization = md.realize_surface(catalog("antiprism_band", k=16), seed=1)
        return md.boundary_point(realization)
    return md.random_polygon_point([int(k) for k in case.split("_")],
                                   np.random.default_rng(37))


@pytest.mark.parametrize("case", ["5", "4_6", "band16_boundary"])
def test_pairing_gram_matches_the_einsum_contraction(case):
    point = _scheme_case(case)
    basis = md.polygon_tangent_basis(point)
    gram = md.pairing_gram(point, basis)
    reference = einsum_gram(point, basis)
    assert np.max(np.abs(gram - reference)) <= 1e-14 * np.max(np.abs(reference))
    assert np.array_equal(gram, -gram.T)
    assert np.all(np.diag(gram) == 0.0)


@pytest.mark.parametrize("case", ["5", "4_6", "band16_boundary"])
def test_polygon_tangent_basis_factors_the_stacked_matrix(case):
    """The in-place scheme matrix has the stacked one's entries, so its
    kernel is the same to the bit."""
    point = _scheme_case(case)
    reference = md._kernel(stacked_scheme_matrix(point)).T.reshape(-1, len(point.vectors), 3)
    assert np.array_equal(md.polygon_tangent_basis(point), reference)


def test_rotation_tangents_pair_to_zero():
    rng = np.random.default_rng(33)
    point = md.random_polygon_point([6], rng)
    basis = md.polygon_tangent_basis(point)
    orbit = md.rotation_orbit_basis(point)
    worst = max(abs(md.symplectic_pairing(point, t, a))
                for t in basis for a in orbit)
    assert worst <= 1e-10


def test_kernel_matches_rotation_orbit():
    rng = np.random.default_rng(34)
    for sizes in ([4], [5], [4, 4], [5, 6], [3], [3, 3]):
        point = md.random_polygon_point(sizes, rng)
        kernel = md.symplectic_kernel_basis(point)
        orbit = md.rotation_orbit_basis(point)
        assert len(kernel) == len(orbit) == 3 * len(sizes)
        assert md.subspace_max_angle(kernel, orbit) <= 1e-6


def test_pairing_nondegenerate_off_kernel():
    rng = np.random.default_rng(35)
    point = md.random_polygon_point([5], rng)
    basis = md.polygon_tangent_basis(point)
    gram = md.pairing_gram(point, basis)
    rank = np.linalg.matrix_rank(gram, rtol=1e-7)
    assert rank == len(basis) - len(md.rotation_orbit_basis(point))


def _edge_vector_residual(s, realization) -> float:
    """Max of the length residual and the reference rows' residual at q."""
    linear = edge_vector_constraint_rows(s) @ realization.q.reshape(-1)
    return max(md.surface_constraint_residual(s, realization.x),
               float(np.max(np.abs(linear))))


def test_realize_catalog_surfaces_exactly():
    for name, k in (("triangle_disk", None), ("antiprism_band", 4),
                    ("pentagon_pants", None), ("three_rhombus_pants", None)):
        s = catalog(name, k=k)
        realization = md.realize_surface(s)
        assert _edge_vector_residual(s, realization) <= 1e-12


def test_perturbed_realization_stays_on_manifold():
    s = catalog("antiprism_band", k=5)
    for seed in range(5):
        realization = md.realize_surface(s, seed=seed)
        assert _edge_vector_residual(s, realization) <= 1e-12


CATALOG = (("triangle_disk", None), ("antiprism_band", 4), ("antiprism_band", 16),
           ("antiprism_band", 40), ("pentagon_pants", None),
           ("three_rhombus_pants", None))


@pytest.mark.parametrize("name, k", CATALOG)
def test_tangents_match_edge_vector_scheme(name, k):
    """The rigidity kernel, as edge vectors, is the edge-vector scheme's kernel."""
    s = catalog(name, k=k)
    linear = edge_vector_constraint_rows(s)
    for seed in range(10):
        realization = md.realize_surface(s, seed=seed)
        assert _edge_vector_residual(s, realization) <= 1e-12
        basis = md.surface_tangent_basis(realization)
        reference = null_space(np.vstack([loop_edge_rows(realization.q), linear]),
                               rcond=md._RANK_REL_EPS)
        assert len(basis) == reference.shape[1]
        assert md.subspace_max_angle(basis, reference.T) <= 1e-10
        flat = basis.reshape(len(basis), -1)
        assert np.max(np.abs(flat @ linear.T)) <= 1e-10
        assert np.max(np.abs(flat @ flat.T - np.eye(len(basis)))) <= 1e-12


def test_triangle_disk_is_rigid():
    realization = md.realize_surface(catalog("triangle_disk"))
    assert len(md.surface_tangent_basis(realization)) == 3  # rotations only


def test_surface_tangent_dim_stable_under_perturbation():
    s = catalog("antiprism_band", k=4)
    dims = {len(md.surface_tangent_basis(md.realize_surface(s, seed=seed)))
            for seed in range(1, 5)}
    assert len(dims) == 1
    assert dims.pop() >= 3


def test_disconnected_surface_raises():
    triangle = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, np.sqrt(3.0) / 2, 0.0]])
    s = GraphSurface(
        name="two_triangles",
        vertex_count=6,
        edges=[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
        lengths=np.ones(6),
        triangles=[(1, 2, 3), (4, 5, 6)],
        walks=[[1, 2, 3], [4, 5, 6]],
        coords=np.vstack([triangle, triangle + [0.0, 0.0, 2.0]]),
    )
    with pytest.raises(md.DisconnectedError):
        md.surface_tangent_basis(md.realize_surface(s))
    with pytest.raises(md.DisconnectedError):
        md.realize_surface(s, seed=0)
    with pytest.raises(md.DisconnectedError):
        md.SurfaceRealization(s, s.coords)


def test_isolated_vertex_is_disconnected():
    disk = catalog("triangle_disk")
    s = GraphSurface(
        name="triangle_and_point",
        vertex_count=4,
        edges=disk.edges,
        lengths=disk.lengths,
        triangles=disk.triangles,
        walks=disk.walks,
        coords=np.vstack([disk.coords, [[0.0, 0.0, 5.0]]]),
    )
    with pytest.raises(md.DisconnectedError):
        md.realize_surface(s, seed=0)
    with pytest.raises(md.DisconnectedError):
        md.surface_tangent_basis(md.realize_surface(s))


def test_boundary_differential_linearity_and_equivariance():
    s = catalog("antiprism_band", k=4)
    realization = md.realize_surface(s, seed=1)
    zero = md.boundary_differential(realization, np.zeros_like(realization.q))
    assert np.allclose(zero, 0.0)
    gen = md._SO3_BASIS[1]
    rotation_tangent = realization.q @ gen.T
    image = md.boundary_differential(realization, rotation_tangent)
    point = md.boundary_point(realization)
    assert np.allclose(image, point.vectors @ gen.T, atol=1e-12)


def loop_polygon_rows(point: md.PolygonPoint) -> np.ndarray:
    """The polygon scheme's edge and closure rows, built one edge at a time."""
    count = len(point.vectors)
    closure = np.zeros((3 * len(point.sizes), 3 * count))
    first = 0
    for p, size in enumerate(point.sizes):
        for j in range(first, first + size):
            closure[3 * p:3 * p + 3, 3 * j:3 * j + 3] = np.eye(3)
        first += size
    return np.vstack([loop_edge_rows(point.vectors), closure])


def test_constraint_rows_match_loop_reference():
    """The polygon scheme's tangents are the kernel of the edge and closure
    rows built one edge at a time, bit for bit, and span the SVD kernel."""
    point = md.boundary_point(md.realize_surface(catalog("pentagon_pants"), seed=5))
    rows = loop_polygon_rows(point)
    basis = md.polygon_tangent_basis(point)
    assert np.array_equal(basis, md._kernel(rows).T.reshape(basis.shape))
    reference = null_space(rows, rcond=md._RANK_REL_EPS)
    assert len(basis) == reference.shape[1]
    assert md.subspace_max_angle(basis, reference.T) <= 1e-10


def _equilateral_triangle() -> md.PolygonPoint:
    turns = 2 * np.pi * np.arange(3) / 3
    return md.polygon_point([np.stack([np.cos(turns), np.sin(turns), 0 * turns], 1)])


def _kernel_cases():
    """(label, matrix): every catalog surface's pinned rigidity matrix at the
    reference positions and at seeds 0-9, and the polygon scheme's rows at
    random k-gons (k = 3 ... 11), the all-parallel quad and the equilateral
    triangle."""
    for name, k in CATALOG:
        s = catalog(name, k=k)
        tails, heads = md._edge_ends(s)
        for seed in (None, *range(10)):
            x = md.realize_surface(s, seed=seed).x
            rigidity = md._rigidity_matrix(x[heads] - x[tails], tails, heads,
                                           s.vertex_count)
            yield f"{name}:k={k} seed={seed}", rigidity[:, 3:]
    rng = np.random.default_rng(37)
    for k in range(3, 12):
        yield f"polygon:k={k}", loop_polygon_rows(md.random_polygon_point([k], rng))
    yield "all_parallel_quad", loop_polygon_rows(md.all_parallel_quad())
    yield "equilateral_triangle", loop_polygon_rows(_equilateral_triangle())


def test_kernel_matches_svd_reference():
    """The pivoted-QR kernel has the SVD kernel's rank and span, is
    orthonormal, and every rank it cuts has a wide margin: kept diagonal
    entries of R at least 1e-3 of the first, dropped ones at most 1e-12."""
    for label, a in _kernel_cases():
        kernel = md._kernel(a)
        reference = null_space(a, rcond=md._RANK_REL_EPS)
        assert kernel.shape == reference.shape, label
        assert md.subspace_max_angle(kernel.T, reference.T) <= 1e-10, label
        gram = kernel.T @ kernel
        assert np.max(np.abs(gram - np.eye(len(gram))), initial=0.0) <= 1e-12, label
        diag = np.abs(np.diag(qr(a.T, pivoting=True, mode="r")[0]))
        rank = a.shape[1] - kernel.shape[1]
        assert np.min(diag[:rank] / diag[0]) >= 1e-3, label
        assert np.max(diag[rank:] / diag[0], initial=0.0) <= 1e-12, label


def test_boundary_differential_stacked_equals_per_tangent():
    s = catalog("pentagon_pants")
    realization = md.realize_surface(s, seed=4)
    basis = md.surface_tangent_basis(realization)
    stacked = md.boundary_differential(realization, basis)
    walk_total = sum(len(w) for w in s.walks)
    assert stacked.shape == (len(basis), walk_total, 3)
    assert stacked.flags.c_contiguous
    for tangent, image in zip(basis, stacked):
        reference = [tangent[abs(r) - 1] * (1 if r > 0 else -1) for w in s.walks for r in w]
        assert np.array_equal(image, reference)
        assert np.array_equal(md.boundary_differential(realization, tangent), image)
        flat = md.boundary_differential(realization, tangent.reshape(-1))
        assert flat.shape == (walk_total, 3)
        assert np.array_equal(flat, image)
    with pytest.raises(ValueError):  # a stack must be (D, n_edges, 3)
        md.boundary_differential(realization, basis.reshape(len(basis), -1))
    point = md.boundary_point(realization)
    assert np.array_equal(point.vectors,
                          md.boundary_differential(realization, realization.q))
    assert point.sizes == tuple(len(w) for w in s.walks)
    assert np.array_equal(point.lengths,
                          [s.lengths[abs(r) - 1] for w in s.walks for r in w])


def test_boundary_differential_commutes_with_collapse():
    s = catalog("antiprism_band", k=4)
    realization = md.realize_surface(s, seed=2)
    basis = md.surface_tangent_basis(realization)
    tri = s.triangles[0]
    ref = next(r for r in tri if any(r in w for w in s.walks))
    collapsed = collapse(s, 0, ref)
    removed = abs(ref) - 1
    keep = [e for e in range(len(s.edges)) if e != removed]
    restricted = md.SurfaceRealization(collapsed, realization.x)
    assert np.array_equal(restricted.q, realization.q[keep])
    for tangent in basis[:3]:
        small = md.boundary_differential(restricted, tangent[keep])
        assert small.shape[0] == sum(len(w) for w in collapsed.walks)


def test_restriction_satisfies_collapsed_constraints():
    s = catalog("antiprism_band", k=4)
    realization = md.realize_surface(s, seed=3)
    basis = md.surface_tangent_basis(realization)
    tri_index = 2
    ref = next(r for r in s.triangles[tri_index] if any(r in w for w in s.walks))
    collapsed = collapse(s, tri_index, ref)
    removed = abs(ref) - 1
    keep = [e for e in range(len(s.edges)) if e != removed]
    q2 = realization.q[keep]
    linear = edge_vector_constraint_rows(collapsed)
    assert md.surface_constraint_residual(collapsed, realization.x) <= 1e-10
    assert np.max(np.abs(linear @ q2.reshape(-1))) <= 1e-10
    for tangent in basis:
        t2 = tangent[keep]
        ortho = max(abs(float(np.dot(t2[j], q2[j]))) for j in range(len(keep)))
        lin = float(np.max(np.abs(linear @ t2.reshape(-1)))) if len(linear) else 0.0
        assert max(ortho, lin) <= 1e-10


def test_isotropy_certificates():
    for name, k in (("antiprism_band", 4), ("pentagon_pants", None),
                    ("three_rhombus_pants", None)):
        s = catalog(name, k=k)
        report = md.isotropy_certificate(s, trials=5, seed=40)
        assert report["passed"], report
        assert report["max_rel_pairing"] <= 1e-8


@pytest.mark.parametrize("name, k", (("antiprism_band", 16), ("pentagon_pants", None),
                                     ("three_rhombus_pants", None)))
def test_isotropy_computes_the_reference_kernel_once(monkeypatch, name, k):
    """``trials + 1`` pinned kernels, and the report of one kernel per trial."""
    s = catalog(name, k=k)
    trials = 4
    calls = []
    kernel = md._pinned_kernel
    monkeypatch.setattr(md, "_pinned_kernel", lambda *a: calls.append(1) or kernel(*a))
    report = md.isotropy_certificate(s, trials=trials, seed=3)
    assert len(calls) == trials + 1

    # the same certificate with each trial recomputing the kernel at s.coords
    perturbed = md._perturbed
    monkeypatch.setattr(md, "_perturbed", lambda s, x, kernel, seed:
                        perturbed(s, x, md._pinned_kernel(s, x), seed))
    calls.clear()
    reference = md.isotropy_certificate(s, trials=trials, seed=3)
    assert len(calls) == 2 * trials + 1
    assert json.dumps(report) == json.dumps(reference)

    # each trial perturbs a copy of the reference positions
    x = np.array(s.coords, dtype=float)
    perturbed(s, x, kernel(s, x), 3)
    assert np.array_equal(x, s.coords)


@pytest.mark.parametrize("name, k", [("antiprism_band", 5), ("triangle_disk", None)])
def test_isotropy_reports_the_worst_trial_residual(name, k):
    """``max_residual`` is the largest length residual of the trial
    realizations, each the seeded ``realize_surface``."""
    s = catalog(name, k=k)
    report = md.isotropy_certificate(s, trials=3, seed=2)
    residuals = [md.surface_constraint_residual(s, md.realize_surface(s, seed=2 + 7919 * t).x)
                 for t in range(3)]
    assert report["max_residual"] == max(residuals)


def test_isotropy_needs_a_trial():
    s = catalog("antiprism_band", k=4)
    for trials in (0, -3):
        with pytest.raises(ValueError, match="at least one trial"):
            md.isotropy_certificate(s, trials=trials)


def test_isotropy_triangle_disk_all_zero():
    report = md.isotropy_certificate(catalog("triangle_disk"), trials=3, seed=41)
    assert report["max_abs_pairing"] <= 1e-12


def test_isotropy_rejects_inconsistent_orientation():
    s = catalog("triangle_disk")
    flipped = GraphSurface(
        name="misoriented",
        vertex_count=s.vertex_count,
        edges=list(s.edges),
        lengths=s.lengths.copy(),
        triangles=list(s.triangles),
        walks=[[-3, -2, -1]],
        coords=s.coords.copy(),
    )
    flipped.validate()
    with pytest.raises(md.NotOrientableError):
        md.isotropy_certificate(flipped, trials=1, seed=0)


def test_rank_certificate_bounds():
    report = md.rank_certificate(catalog("three_rhombus_pants"), seed=42)
    assert report["passed"], report
    assert report["rhombus_moduli_dim"] == 2
    assert report["rank_moduli"]["rank"] <= 3
    assert report["rank_projected"]["rank"] <= 3 < 4
    assert report["rank_moduli"]["gap_factor"] >= 10.0
    assert report["rank_projected"]["gap_factor"] >= 10.0


def test_rank_certificate_rejects_wrong_boundary():
    with pytest.raises(md.BoundaryShapeMismatchError):
        md.rank_certificate(catalog("pentagon_pants"))


def test_perturbed_with_an_empty_kernel_keeps_the_positions():
    """With no direction to move in, ``_perturbed`` returns an equal copy of
    ``x`` and the true length residual of it, here far from 0."""
    s = catalog("antiprism_band", k=5)
    x = 1.1 * np.array(s.coords, dtype=float)
    kernel = np.zeros((3 * (len(x) - 1), 0))
    moved, residual = md._perturbed(s, x, kernel, 3)
    assert moved is not x and np.array_equal(moved, x)
    assert residual == md.surface_constraint_residual(s, x) > 0.2
