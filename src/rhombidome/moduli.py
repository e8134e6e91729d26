"""Numerical linkage moduli: tangent spaces, a skew pairing, and certificates.

A polygon tuple is a set of edge vectors with fixed lengths whose per-polygon
sums vanish.  Its scheme is linearized as ``[edge rows; closure rows]``: one
row per edge holding that edge's vector (``_edge_rows``), and three rows per
polygon closure, one per coordinate (``_sum_rows``).  A polyhedron is a set
of vertex positions with fixed edge lengths, so its scheme is the length map
on positions modulo translation; its linearization is the rigidity matrix
(row e holds edge e's vector in its head's columns and the negated vector in
its tail's).  Tangent spaces are numerical kernels of these matrices (SVD
with a relative singular-value cutoff); polyhedron tangents are the
rigidity kernel with vertex 0 pinned, mapped to edge vectors through the
incidence.  The skew pairing on polygon tangents is

    sum over edges of  det[t(f), t'(f), p(f)] / length(f)^2 ,

whose kernel at any point is exactly the tangent space of the per-polygon
rotation orbits; certificates below check that numerically, together with
the vanishing of the pairing pulled back through the boundary map of an
orientable surface and the rank bounds that follow from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# Factorizations come from scipy.linalg only: numpy and scipy each bundle an
# OpenBLAS, and alternating between the two makes their thread pools contend.
from scipy.linalg import block_diag, lstsq, null_space, orth, qr, subspace_angles, svd

from .curve import random_integral_curve
from .geom import EPS
from .surface import GraphSurface, is_oriented_consistently

__all__ = [
    "PolygonSystem",
    "PolygonPoint",
    "SurfaceRealization",
    "DisconnectedError",
    "ProjectionDivergedError",
    "NotOrientableError",
    "BoundaryShapeMismatchError",
    "polygon_point",
    "random_polygon_point",
    "all_parallel_quad",
    "polygon_tangent_basis",
    "symplectic_pairing",
    "pairing_gram",
    "rotation_orbit_basis",
    "symplectic_kernel_basis",
    "subspace_max_angle",
    "realize_surface",
    "surface_constraint_residual",
    "surface_tangent_basis",
    "boundary_point",
    "boundary_differential",
    "isotropy_certificate",
    "rank_certificate",
]


class DisconnectedError(ValueError):
    """The surface 1-skeleton is not connected."""


class ProjectionDivergedError(RuntimeError):
    """Gauss-Newton reprojection did not reach the target residual."""


class NotOrientableError(ValueError):
    """Certificate requires a consistently oriented closed surface."""


class BoundaryShapeMismatchError(ValueError):
    """Certificate requires three unit 4-gon boundary components."""


_SO3_BASIS = np.array([
    [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
    [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
    [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
])

# Size of the random tangent step in ``realize_surface``.
_STEP = 0.15
# Gauss-Newton reprojection: residual target and iteration cap.
_PROJECTION_TARGET = 1e-13
_PROJECTION_MAX_ITER = 60
# Relative singular-value cutoff of every numerical rank and kernel.
_RANK_REL_EPS = 1e-7


# ---------------------------------------------------------------------------
# constraint rows


def _edge_rows(vectors: np.ndarray) -> np.ndarray:
    """(K, 3K) rows: row j holds vectors[j] in edge j's three columns."""
    return block_diag(*vectors[:, None, :])


def _sum_rows(coeff: np.ndarray) -> np.ndarray:
    """(3m, 3K) rows: the m signed edge sums ``coeff`` (m, K), per coordinate."""
    return np.kron(coeff, np.eye(3)) + 0.0  # + 0.0 clears the -0.0 of -1 * 0


# ---------------------------------------------------------------------------
# polygon schemes


@dataclass
class PolygonSystem:
    """Edge lengths of a tuple of combinatorial polygons."""

    lengths: list[np.ndarray]

    @property
    def sizes(self) -> list[int]:
        return [len(l) for l in self.lengths]

    @property
    def offsets(self) -> list[int]:
        out = [0]
        for s in self.sizes:
            out.append(out[-1] + s)
        return out

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def flat_lengths(self) -> np.ndarray:
        return np.concatenate(self.lengths)


@dataclass
class PolygonPoint:
    """Realization of a polygon tuple: one 3-vector per edge, closed per polygon."""

    system: PolygonSystem
    vectors: np.ndarray  # (K, 3)


def polygon_point(edge_vector_lists: list[np.ndarray]) -> PolygonPoint:
    lengths = [np.linalg.norm(np.asarray(v, dtype=float), axis=1)
               for v in edge_vector_lists]
    vectors = np.vstack([np.asarray(v, dtype=float) for v in edge_vector_lists])
    return PolygonPoint(PolygonSystem(lengths), vectors)


def random_polygon_point(sizes: list[int], rng: np.random.Generator) -> PolygonPoint:
    """Random unit polygons (closed walks of unit steps), one per size."""
    parts = []
    for k in sizes:
        verts = random_integral_curve(k, rng).components[0]
        parts.append(np.roll(verts, -1, axis=0) - verts)
    return polygon_point(parts)


def all_parallel_quad() -> PolygonPoint:
    """The singular unit 4-gon with all edges on one line: (e, -e, e, -e)."""
    e = np.array([1.0, 0.0, 0.0])
    return polygon_point([np.vstack([e, -e, e, -e])])


def polygon_tangent_basis(point: PolygonPoint) -> np.ndarray:
    """Orthonormal basis (D, K, 3) of the polygon scheme tangent space."""
    closures = np.repeat(np.eye(len(point.system.lengths)), point.system.sizes, axis=1)
    stacked = np.vstack([_edge_rows(point.vectors), _sum_rows(closures)])
    kernel = null_space(stacked, rcond=_RANK_REL_EPS)
    return kernel.T.reshape(-1, point.system.total, 3)


def symplectic_pairing(point: PolygonPoint, t1: np.ndarray, t2: np.ndarray) -> float:
    """Skew pairing of two tangents, flat or (K, 3): entry [0, 1] of the Gram."""
    return float(pairing_gram(point, np.stack([np.ravel(t1), np.ravel(t2)]))[0, 1])


def pairing_gram(point: PolygonPoint, basis: np.ndarray) -> np.ndarray:
    """Exactly skew Gram of the pairing on a stack of D tangents.

    Entry [a, b] is  sum over edges of  t_a . (t_b x p) / length^2 ; the
    strict upper triangle is computed and mirrored with the opposite sign.
    """
    basis = np.asarray(basis, dtype=float).reshape(len(basis), point.system.total, 3)
    lengths = point.system.flat_lengths()
    turned = np.cross(basis, point.vectors) / (lengths ** 2)[:, None]
    upper = np.triu(np.einsum("aki,bki->ab", basis, turned), 1)
    return upper - upper.T


def rotation_orbit_basis(point: PolygonPoint) -> np.ndarray:
    """Orthonormal basis of the per-polygon rotation orbit directions."""
    total = point.system.total
    offsets = point.system.offsets
    generators = []
    for i in range(len(point.system.lengths)):
        for gen in _SO3_BASIS:
            vec = np.zeros((total, 3))
            vec[offsets[i]:offsets[i + 1]] = point.vectors[offsets[i]:offsets[i + 1]] @ gen.T
            generators.append(vec.reshape(-1))
    basis = orth(np.array(generators).T, rcond=_RANK_REL_EPS)
    return basis.T.reshape(-1, total, 3)


def symplectic_kernel_basis(point: PolygonPoint) -> np.ndarray:
    """Kernel of the pairing on the tangent space, in ambient coordinates.

    Singular values of the Gram at or below ``_RANK_REL_EPS`` times the
    largest, or below the absolute floor 1e-12, count as zero: a Gram of pure
    rounding (a polygon with no moduli) has the whole tangent space as kernel.
    """
    basis = polygon_tangent_basis(point)
    gram = pairing_gram(point, basis)
    _, spectrum, vh = svd(gram)
    cutoff = max(_RANK_REL_EPS * (spectrum[0] if len(spectrum) else 0.0), 1e-12)
    null = vh[int(np.sum(spectrum > cutoff)):].T
    flat = basis.reshape(len(basis), -1)
    return (null.T @ flat).reshape(-1, point.system.total, 3)


def subspace_max_angle(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    """Largest principal angle between two spans given as (D, ...) bases."""
    a = np.asarray(basis_a).reshape(len(basis_a), -1).T
    b = np.asarray(basis_b).reshape(len(basis_b), -1).T
    angles = subspace_angles(a, b)
    return float(np.max(angles)) if len(angles) else 0.0


# ---------------------------------------------------------------------------
# polyhedron schemes


@dataclass
class SurfaceRealization:
    """Vertex positions of a graph surface; edge vectors are derived."""

    surface: GraphSurface
    x: np.ndarray  # (vertex_count, 3)

    @property
    def q(self) -> np.ndarray:
        """Edge vectors (n_edges, 3): head position minus tail position."""
        tails, heads = _edge_ends(self.surface)
        return self.x[heads] - self.x[tails]


def _edge_ends(s: GraphSurface) -> tuple[np.ndarray, np.ndarray]:
    """Tail and head vertex ids of every edge."""
    tails, heads = np.asarray(s.edges, dtype=int).reshape(-1, 2).T
    return tails, heads


def _signed_refs(refs) -> tuple[np.ndarray, np.ndarray]:
    """Edge ids and signs of an array of signed edge references."""
    refs = np.asarray(refs, dtype=int)
    if np.any(refs == 0):
        raise ValueError("edge reference 0 is invalid")
    return np.abs(refs) - 1, np.sign(refs)


def _rigidity_matrix(s: GraphSurface, x: np.ndarray) -> np.ndarray:
    """(E, 3V) rows: row e holds q_e in its head's columns, -q_e in its tail's."""
    tails, heads = _edge_ends(s)
    q = x[heads] - x[tails]
    rows = np.zeros((len(q), s.vertex_count, 3))
    rows[np.arange(len(q)), heads] += q
    rows[np.arange(len(q)), tails] -= q
    return rows.reshape(len(q), -1)


def _pinned_kernel(s: GraphSurface, x: np.ndarray) -> np.ndarray:
    """Orthonormal kernel (3V - 3, D) of the rigidity matrix, vertex 0 pinned.

    Pinning one vertex removes the translations only on a connected skeleton,
    so a disconnected one raises.
    """
    reached = frontier = {0}
    while frontier:  # breadth-first search from vertex 0
        frontier = {w for edge in s.edges for v, w in (edge, edge[::-1])
                    if v in frontier} - reached
        reached = reached | frontier
    if len(reached) != s.vertex_count:
        raise DisconnectedError("surface skeleton is not connected")
    return null_space(_rigidity_matrix(s, x)[:, 3:], rcond=_RANK_REL_EPS)


def _length_residual(s: GraphSurface, x: np.ndarray) -> np.ndarray:
    """Squared edge lengths at positions x minus their targets."""
    q = SurfaceRealization(s, x).q
    return np.einsum("ij,ij->i", q, q) - np.asarray(s.lengths, dtype=float) ** 2


def surface_constraint_residual(s: GraphSurface, x: np.ndarray) -> float:
    """Max-norm residual of the edge-length equations at vertex positions x."""
    return float(np.max(np.abs(_length_residual(s, x))))


def _project_to_constraints(s: GraphSurface, x: np.ndarray) -> np.ndarray:
    """Gauss-Newton on the E length equations, Jacobian twice the rigidity matrix."""
    for _ in range(_PROJECTION_MAX_ITER):
        residual = _length_residual(s, x)
        if float(np.max(np.abs(residual))) <= _PROJECTION_TARGET:
            return x
        jac = 2 * _rigidity_matrix(s, x)
        # A self-stress (three_rhombus_pants has one) leaves a singular value at
        # rounding level, which grows with the matrix size: cut at eps * max(E, 3V)
        # (numpy's default), not at scipy's default eps.
        step, *_ = lstsq(jac, -residual, cond=np.finfo(float).eps * max(jac.shape))
        x = x + step.reshape(-1, 3)
    raise ProjectionDivergedError("Gauss-Newton projection did not converge")


def realize_surface(s: GraphSurface, seed: int | None = None) -> SurfaceRealization:
    """Realization from catalog coordinates, optionally perturbed on-manifold.

    With a seed, the positions step ``_STEP`` along a random unit direction
    of the rigidity kernel (vertex 0 pinned) and are then reprojected onto
    the length equations by Gauss-Newton (residual <= 1e-12).
    """
    if s.coords is None:
        raise ValueError(f"surface {s.name} carries no reference coordinates")
    x = np.array(s.coords, dtype=float)
    if seed is None:
        return SurfaceRealization(s, x)
    rng = np.random.default_rng(seed)
    kernel = _pinned_kernel(s, x)
    if kernel.shape[1] == 0:
        return SurfaceRealization(s, x)
    direction = kernel @ rng.normal(size=kernel.shape[1])
    direction /= max(np.linalg.norm(direction), 1e-300)
    x[1:] += _STEP * direction.reshape(-1, 3)
    x = _project_to_constraints(s, x)
    if surface_constraint_residual(s, x) > 1e-12:
        raise ProjectionDivergedError("projection residual above 1e-12")
    return SurfaceRealization(s, x)


def surface_tangent_basis(realization: SurfaceRealization) -> np.ndarray:
    """Orthonormal basis (D, n_edges, 3) of the polyhedron scheme tangents.

    The rigidity kernel (vertex motions keeping every length to first order,
    vertex 0 pinned) is mapped to edge vectors through the incidence and
    orthonormalized there by QR.
    """
    s = realization.surface
    kernel = _pinned_kernel(s, realization.x)
    motions = np.vstack([np.zeros((3, kernel.shape[1])), kernel])
    motions = motions.T.reshape(-1, s.vertex_count, 3)
    tails, heads = _edge_ends(s)
    edge_vectors = (motions[:, heads] - motions[:, tails]).reshape(len(motions), -1)
    basis, _ = qr(edge_vectors.T, mode="economic")
    return basis.T.reshape(-1, len(s.edges), 3)


def boundary_point(realization: SurfaceRealization) -> PolygonPoint:
    """Boundary polygons realized by precomposition with the boundary map."""
    s = realization.surface
    eid, _ = _signed_refs(np.concatenate(s.walks))
    lengths = np.asarray(s.lengths, dtype=float)[eid]
    splits = np.cumsum([len(walk) for walk in s.walks])[:-1]
    return PolygonPoint(PolygonSystem(np.split(lengths, splits)),
                        boundary_differential(realization, realization.q))


def boundary_differential(realization: SurfaceRealization,
                          tangent: np.ndarray) -> np.ndarray:
    """Push polyhedron tangents to polygon tangents (precomposition).

    One tangent, flat or (n_edges, 3), maps to (K, 3); a stack
    (D, n_edges, 3) maps to (D, K, 3), K being the total walk length.
    """
    s = realization.surface
    tangent = np.asarray(tangent, dtype=float)
    count = len(tangent) if tangent.ndim == 3 else 1
    stacked = tangent.reshape(count, len(s.edges), 3)
    eid, sign = _signed_refs(np.concatenate(s.walks))
    # np.take keeps C order (fancy indexing after a slice does not), so BLAS
    # products of the images round as those of per-tangent rows did
    images = sign[:, None] * np.take(stacked, eid, axis=1)
    return images if tangent.ndim == 3 else images[0]


# ---------------------------------------------------------------------------
# certificates


def isotropy_certificate(s: GraphSurface, trials: int = 20, seed: int = 0) -> dict:
    """Max pairing of boundary-pushed tangents, relative to the ambient scale.

    For a consistently oriented surface the pushed-forward tangent pairs
    must pair to zero; the certificate reports the worst |pairing| over a
    full tangent basis at ``trials`` random on-manifold realizations,
    normalized by the largest pairing among all polygon tangents there.
    """
    if trials < 1:
        raise ValueError(f"isotropy needs at least one trial, got {trials}")
    s.validate()
    if not is_oriented_consistently(s):
        raise NotOrientableError(f"{s.name} is not consistently oriented")
    worst_rel = 0.0
    worst_abs = 0.0
    scale_seen = 0.0
    worst_residual = 0.0
    dims = set()
    for t in range(trials):
        realization = realize_surface(s, seed=seed + 7919 * t)
        worst_residual = max(worst_residual,
                             surface_constraint_residual(s, realization.x))
        basis = surface_tangent_basis(realization)
        dims.add(len(basis))
        point = boundary_point(realization)
        gram_img = pairing_gram(point, boundary_differential(realization, basis))
        full = polygon_tangent_basis(point)
        gram_full = pairing_gram(point, full)
        scale = float(np.max(np.abs(gram_full))) if gram_full.size else 0.0
        max_abs = float(np.max(np.abs(gram_img))) if gram_img.size else 0.0
        rel = max_abs / scale if scale > 1e-12 else max_abs
        worst_rel = max(worst_rel, rel)
        worst_abs = max(worst_abs, max_abs)
        scale_seen = max(scale_seen, scale)
    return {
        "surface": s.name,
        "trials": trials,
        "max_abs_pairing": worst_abs,
        "max_rel_pairing": worst_rel,
        "pairing_scale": scale_seen,
        "max_residual": worst_residual,
        "tangent_dims": sorted(dims),
        "passed": bool(worst_rel <= 1e-8),
    }


def _rank_with_gap(matrix: np.ndarray, scale: float) -> dict:
    """Numerical rank at ``_RANK_REL_EPS`` with an auditable gap report.

    ``scale`` anchors the relative threshold: pass the pre-projection scale
    when ranking a projected matrix, so that a matrix annihilated by the
    projection reads as rank zero instead of full of noise.  A scale of zero
    falls back to the matrix's own largest singular value.
    """
    spectrum = (np.linalg.svd(matrix, compute_uv=False)
                if matrix.size else np.zeros(0))
    if scale <= 0.0:
        scale = float(spectrum[0]) if len(spectrum) else 0.0
    rank = int(np.sum(spectrum > _RANK_REL_EPS * scale)) if scale > 0 else 0
    kept = float(spectrum[rank - 1] / scale) if rank > 0 else float("inf")
    dropped = float(spectrum[rank] / scale) if rank < len(spectrum) and scale > 0 else 0.0
    return {
        "rank": rank,
        "singular_values": [float(v) for v in spectrum],
        "kept_rel": kept,
        "dropped_rel": dropped,
        "threshold_rel": _RANK_REL_EPS,
        "gap_factor": (kept / _RANK_REL_EPS) if np.isfinite(kept) else float("inf"),
    }


def rank_certificate(s: GraphSurface, seed: int | None = 0) -> dict:
    """Rank bounds of the boundary differential on a 3-rhombus-boundary surface.

    Reports the rank of the pushed tangents modulo the rotation-orbit
    directions (bound: 3 = floor(3m/2) for rhombus moduli dimension m = 2)
    and after projecting to the first two boundary factors (bound: 3 < 4).
    """
    s.validate()
    if len(s.walks) != 3 or any(len(w) != 4 for w in s.walks):
        raise BoundaryShapeMismatchError("need exactly three 4-gon boundaries")
    if np.max(np.abs(np.asarray(s.lengths) - 1.0)) > EPS:
        raise BoundaryShapeMismatchError("boundary rhombi must have unit edges")
    realization = realize_surface(s, seed=seed)
    basis = surface_tangent_basis(realization)
    point = boundary_point(realization)
    pushed = boundary_differential(realization, basis)  # (D, 12, 3)
    images = pushed.reshape(len(basis), -1)

    image_scale = float(np.linalg.svd(images, compute_uv=False)[0]) \
        if images.size else 0.0
    orbit = rotation_orbit_basis(point).reshape(-1, 3 * point.system.total)
    proj = images - images @ orbit.T @ orbit
    moduli = _rank_with_gap(proj, image_scale)

    two_point = PolygonPoint(PolygonSystem(point.system.lengths[:2]),
                             point.vectors[:8])
    images_two = pushed[:, :8].reshape(len(basis), -1)
    orbit_two = rotation_orbit_basis(two_point).reshape(-1, 24)
    proj_two = images_two - images_two @ orbit_two.T @ orbit_two
    projected = _rank_with_gap(proj_two, image_scale)

    one_point = PolygonPoint(PolygonSystem(point.system.lengths[:1]),
                             point.vectors[:4])
    scheme_dim = len(polygon_tangent_basis(one_point))
    orbit_dim = len(rotation_orbit_basis(one_point))
    m = scheme_dim - orbit_dim

    passed = (moduli["rank"] <= 3 and projected["rank"] <= 3
              and m == 2
              and moduli["gap_factor"] >= 10.0
              and projected["gap_factor"] >= 10.0)
    return {
        "surface": s.name,
        "rhombus_moduli_dim": m,
        "rank_moduli": moduli,
        "rank_projected": projected,
        "bound_moduli": 3,
        "bound_projected": 4,
        "max_residual": surface_constraint_residual(s, realization.x),
        "tangent_dim": len(basis),
        "passed": bool(passed),
    }
