"""
Matrix-free Pauli and Schrodinger Hamiltonians on the periodic box.

The kinetic part acts through FFTs, everything else by pointwise
multiplication; the Pauli kinetic energy is applied as the factored square
[sigma.(D+A)]^2 so it is nonnegative by construction.  dense_matrix assembles
the same operator in closed form on supp psi, up to DENSE_LIMIT rows: every
kinetic piece is a circulant (one inverse transform of its symbol) gathered
on the support's points, and A, V and psi only scale its rows and columns.

One Fourier-space core acts on raw arrays laid out (spin, *batch, *grid):
any number of batch axes between the spin axis and the last d grid axes, so
a whole block of vectors goes through one call.  It takes a vector in both
spaces and returns T u as a pair (F, R) with T u = ifft(F) + R, so it has two
entries: apply on samples and apply_fourier on unitary plane-wave
coefficients, which takes no psi.  n-d transforms per vector, counted in
units of one grid-sized transform (at d = 3), the same for both entries:

    Schrodinger, A = None    2       h^2 |k|^2 uh, V u on samples
    Schrodinger, with A      2d + 2  v_j = (D_j + A_j) u, then sum_j (D_j + A_j) v_j
    Pauli, A = None          4       (sigma.hk)^2 = h^2 |k|^2 on the full lattice
    Pauli, with A            8       sigma.(D+A) twice, the middle spinor in both spaces

Working sets are bounded in bytes, not counts, so they stay put as the
dimension grows: the columns of a (dim, m) array reach the core
COLUMN_BLOCK_BYTES at a time (_column_blocks), and dense_matrix builds its
rows in slabs of FFT_SLAB_BYTES, the transforms' cache budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import FFT_SLAB_BYTES, GridSpec, ScalarField, SpinorField, VectorField, _fft, _ifft

DENSE_LIMIT = 4096
# Most bytes of one complex (spin, m, *grid) array per core call: _column_blocks
# hands the core m = budget / (16 dim) columns at a time (at least one), 512 at
# dim 1024 and 16 at dim 32768, so the core's few temporaries of that size
# stay a fixed working set whatever the dimension.
COLUMN_BLOCK_BYTES = 1 << 23
ORTHO = "ortho"  # apply_fourier's coefficients: the unitary transform

PAULI = "pauli"
SCHRODINGER = "schrodinger"


@dataclass(frozen=True)
class HamiltonianSpec:
    """Parameters of the (optionally localized) operator psi (T_h(A) - V) psi."""

    grid: GridSpec
    h: float
    flavor: str = SCHRODINGER
    A: VectorField | None = None
    V: ScalarField | None = None
    psi: ScalarField | None = None

    def __post_init__(self) -> None:
        if self.h <= 0:
            raise ValueError("h must be positive")
        if self.flavor not in (PAULI, SCHRODINGER):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.flavor == PAULI and self.grid.d != 3:
            raise ValueError("pauli flavor requires d = 3")
        for name, f in (("A", self.A), ("V", self.V), ("psi", self.psi)):
            if f is not None and (f.grid != self.grid or np.iscomplexobj(f.data)):
                raise ValueError(f"{name} must be a real field on the spec's grid")

    @property
    def spin(self) -> int:  # spinor components, fixed by the flavor
        return 2 if self.flavor == PAULI else 1

    @property
    def dim(self) -> int:
        return self.spin * self.grid.N**self.grid.d

    def with_A(self, A: VectorField | None) -> "HamiltonianSpec":
        return replace(self, A=A)


# ---------------------------------------------------------------------------
# Fourier-space kinetic core: raw (spin, *batch, *grid) arrays, whole blocks


def _block(spec: HamiltonianSpec, cols: np.ndarray) -> np.ndarray:
    """Columns (dim, m) of the flattened operator -> block (spin, m, *grid)."""
    shape = (spec.spin,) + spec.grid.shape + (cols.shape[1],)
    return np.ascontiguousarray(np.moveaxis(cols.reshape(shape), -1, 1))


def _columns(block: np.ndarray) -> np.ndarray:
    """Inverse of _block: (spin, m, *grid) -> columns (dim, m), m = 0 included."""
    dim = block.shape[0] * math.prod(block.shape[2:])
    return np.moveaxis(block, 1, -1).reshape(dim, block.shape[1])


def _column_slices(spec: HamiltonianSpec, m: int):
    """Slices tiling range(m) in order, COLUMN_BLOCK_BYTES of complex columns each.

    The one walk over the columns of a (dim, m) array of spec's vectors, so
    no dim x m temporary is made: at least one column per slice.
    """
    per = max(1, COLUMN_BLOCK_BYTES // (16 * spec.dim))
    for lo in range(0, m, per):
        yield slice(lo, min(lo + per, m))


def _column_blocks(spec: HamiltonianSpec, *cols: np.ndarray):
    """(column slice, blocks) for each _column_slices slice of the (dim, m) arrays cols.

    blocks holds one core-sized _block per array, in order.
    """
    for at in _column_slices(spec, cols[0].shape[1]):
        yield at, [_block(spec, X[:, at]) for X in cols]


def _sigma_dot(v, w: np.ndarray) -> np.ndarray:
    """sigma.v acting on a 2-spinor array w = (up, down, ...), built in one new array."""
    vm, vp = v[0] - 1j * v[1], v[0] + 1j * v[1]
    out = np.empty((2,) + np.broadcast_shapes(vm.shape, np.shape(v[2]), w.shape[1:]),
                   dtype=np.result_type(vm, w))
    np.multiply(v[2], w[0], out=out[0])
    out[0] += vm * w[1]
    np.multiply(vp, w[0], out=out[1])
    out[1] -= v[2] * w[1]
    return out


def _sigma_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Spin densities a* sigma_j b for j = x, y, z, pointwise in everything else."""
    ca = np.conj(a)
    return np.stack([
        ca[0] * b[1] + ca[1] * b[0],
        -1j * ca[0] * b[1] + 1j * ca[1] * b[0],
        ca[0] * b[0] - ca[1] * b[1],
    ])


def _in_space(F: np.ndarray, R, d: int, norm: str = "backward") -> np.ndarray:
    """The vector ifft(F) + R; R is None for a vector with no real-space part."""
    out = _ifft(F, d, norm)
    if R is not None:
        out += R
    return out


def _both(F: np.ndarray, R, d: int, norm: str):
    """The vector ifft(F) + R in both spaces, (transform, samples).

    Each space is built from the two parts with one transform, never by a
    round trip through the other space, which would add a second rounding.
    """
    vh = _fft(R, d, norm)
    vh += F
    return vh, _in_space(F, R, d, norm)


def _momenta(spec: HamiltonianSpec, uh: np.ndarray, u: np.ndarray):
    """(D_j + A_j) u for each j in turn, as the pairs (h k_j uh, A_j u).

    uh is the transform of u.  One component at a time, so a large block
    never holds d copies of each part.  D = -ih grad multiplies by h*k on
    the full dual lattice (Nyquist included), which keeps the kinetic
    operator Hermitian with a strictly positive symbol away from k = 0; the
    Nyquist-zeroed field calculus (grid.jacobian) is only for real fields.
    """
    for j, kj in enumerate(spec.grid.k):
        yield spec.h * kj * uh, None if spec.A is None else spec.A.data[j] * u


def _sigma_momentum(spec: HamiltonianSpec, uh: np.ndarray, u: np.ndarray):
    """sigma.(D+A) u on 2-spinors as the pair (sigma.hk uh, sigma.A u)."""
    F = _sigma_dot([spec.h * kj for kj in spec.grid.k], uh)
    return F, None if spec.A is None else _sigma_dot(spec.A.data, u)


def _schrodinger_kinetic(spec: HamiltonianSpec, uh: np.ndarray, u: np.ndarray, norm: str):
    """(D+A)^2 componentwise in spin as a pair: no transform without A, 2d with A."""
    g = spec.grid
    if spec.A is None:
        return spec.h**2 * g.k2 * uh, None
    F = R = 0
    for (Fj, Rj), kj, a in zip(_momenta(spec, uh, u), g.k, spec.A.data):
        vh, v = _both(Fj, Rj, g.d, norm)
        F, R = F + spec.h * kj * vh, R + a * v
    return F, R


def _kinetic(spec: HamiltonianSpec, uh: np.ndarray, u: np.ndarray, norm: str = "backward"):
    """T_h(A) u as a pair (F, R), T u = ifft(F) + R, from u and its transform uh.

    The Pauli square [sigma.(D+A)]^2 equals h^2 |k|^2 at A = None.  Every
    transform inside uses norm, the convention that relates uh to u.
    """
    if spec.flavor == PAULI and spec.A is not None:
        vh, v = _both(*_sigma_momentum(spec, uh, u), spec.grid.d, norm)
        return _sigma_momentum(spec, vh, v)
    return _schrodinger_kinetic(spec, uh, u, norm)


def _current_form(spec: HamiltonianSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over spin and batch of a* Pi_j b, with Pi_j the current operator.

    Pi_j = D_j + A_j (Schrodinger) or sigma_j sigma.(D+A) (Pauli, which adds
    the spin current); a and b are blocks of the same shape.  Returns the
    complex density (d, *grid); the physical current takes minus its real part.
    """
    d, bh = spec.grid.d, _fft(b, spec.grid.d)
    if spec.flavor == PAULI:
        dens = _sigma_pair(a, _in_space(*_sigma_momentum(spec, bh, b), d))  # spin already traced
    else:
        dens = np.stack([np.sum(np.conj(a) * _in_space(F, R, d), axis=0)
                         for F, R in _momenta(spec, bh, b)])
    return np.sum(dens, axis=tuple(range(1, dens.ndim - d)))


def apply(spec: HamiltonianSpec, u):
    """psi (T_h(A) - V) psi u, or (T_h(A) - V) u without localization.

    u is a SpinorField or a raw block laid out (spin, *batch, *grid); a block
    comes back as a block of the same shape, every vector in one pass.
    """
    g = spec.grid
    field = isinstance(u, SpinorField)
    w = u.data if field else np.asarray(u)
    grid_ok = u.grid == g if field else w.shape[w.ndim - g.d:] == g.shape
    if not grid_ok:
        raise ValueError("spinor grid mismatch")
    if w.shape[0] != spec.spin:
        raise ValueError(f"spinor has {w.shape[0]} components, spec expects {spec.spin}")
    if spec.psi is not None:
        w = spec.psi.data * w
    out = _in_space(*_kinetic(spec, _fft(w, g.d), w), g.d)
    if spec.V is not None:
        out -= spec.V.data * w
    if spec.psi is not None:
        out *= spec.psi.data
    return SpinorField(g, out) if field else out


def apply_fourier(spec: HamiltonianSpec, c: np.ndarray) -> np.ndarray:
    """apply on unitary plane-wave coefficients: F apply F^-1 c, F = fft(norm="ortho").

    c is a raw block laid out like apply's, the grid axes holding
    wavenumbers in numpy's fft order.  The kinetic part stays in Fourier
    space and V and A act on samples, so a vector costs the transforms of
    apply (module docstring).  A localized operator is only ever solved as
    dense_matrix's block on supp psi: ValueError when psi is set.
    """
    if spec.psi is not None:
        raise ValueError("apply_fourier takes no psi: a localized operator is solved "
                         "on supp psi by dense_matrix")
    d, wh = spec.grid.d, np.asarray(c)
    w = _ifft(wh, d, ORTHO)
    F, R = _kinetic(spec, wh, w, ORTHO)
    if spec.V is not None:  # R is the core's own array, so it is updated in place
        if R is None:
            R = -spec.V.data * w
        else:
            R -= spec.V.data * w
    if R is None:
        return F
    out = _fft(R, d, ORTHO)
    out += F
    return out


# ---------------------------------------------------------------------------
# dense path: closed-form assembly

_SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def dense_matrix(spec: HamiltonianSpec) -> np.ndarray:
    """The operator on supp psi (times spin) as a square matrix, assembled in closed form.

    Rows and columns are the k points where psi is nonzero (every point when
    psi is unset) in flattened grid order, spin-major: index s k + i.
    psi (T - V) psi vanishes on every other row and column, so the block is
    all of it.  A Fourier multiplier s on the full lattice is the circulant
    C_s[x, y] = c_s[(x - y) mod N] with c_s = ifft(s).  With C_j = C_{hk_j},
    the entries of (T_h(A) - V) are, for x, y on the grid,

        C_{h^2|k|^2} + sum_j C_j (A_j(x) + A_j(y)) + (sum_j A_j^2 - V) delta_xy

    for Schrodinger, and as 2x2 spin blocks with
    M = sigma.A (Pauli, [sigma.(D+A)]^2 expanded; M = 0 without A)

        C_{h^2|k|^2} I + sum_j C_j (M(x) sigma_j + sigma_j M(y)) + (M^2 - V) delta_xy

    times psi(x) psi(y).  Every factor is real when A is None, and so is the
    matrix then (float64; complex128 otherwise).  Each circulant entry is
    gathered as c[x - y], one index array per axis, where a negative index
    wraps to the mod N; with every point kept the columns are np.ix_ aranges
    that broadcast, so no (rows, k) index table is made.  Rows are built, and
    scaled by psi, in slabs of FFT_SLAB_BYTES // (16 k) rows (at least one),
    so the temporaries stay a small multiple of that cache-sized budget.
    ValueError, before the matrix is allocated, when spin k > DENSE_LIMIT.
    """
    g = spec.grid
    n, spin = g.size, spec.spin
    at = np.arange(n) if spec.psi is None else np.flatnonzero(spec.psi.data)
    k = at.size
    if spin * k > DENSE_LIMIT:
        raise ValueError(f"dense path limited to dim <= {DENSE_LIMIT}, got {spin * k}: "
                         f"spin {spin} times {k} points of supp psi")
    x = np.unravel_index(at, g.shape)  # row coordinates, one array per axis
    y = np.ix_(*[np.arange(g.N)] * g.d) if k == n else x
    kin = _ifft(spec.h**2 * g.k2, g.d).real  # an even real symbol: a real circulant
    V = np.zeros(k) if spec.V is None else spec.V.data.ravel()[at]
    # C_j is scaled by right[j](x) + left[j](y), spin blocks (a, b) last
    mom, pot = [], np.zeros((k, 1, 1))
    if spec.A is not None:
        A = spec.A.data.reshape(g.d, n)[:, at]
        mom = [_ifft(spec.h * np.broadcast_to(kj, g.shape), g.d) for kj in g.k]
        if spec.flavor == PAULI:
            M = np.tensordot(A.T, _SIGMA, 1)  # sigma.A, (k, 2, 2)
            left, right, pot = _SIGMA[:, None] @ M, M @ _SIGMA[:, None], M @ M
        else:
            left = A[:, :, None, None]
            right, pot = left, np.sum(A * A, axis=0)[:, None, None]
    pot = pot - V[:, None, None] * np.eye(spin)

    psi = None if spec.psi is None else spec.psi.data.ravel()[at]
    H = np.zeros((spin, k, spin, k), dtype=np.float64 if spec.A is None else np.complex128)
    step = max(1, FFT_SLAB_BYTES // (16 * max(k, 1)))  # rows per slab: a complex (rows, k) in cache
    for lo in range(0, k, step):
        rows = slice(lo, min(lo + step, k))
        r = rows.stop - lo
        diag = (np.arange(r), lo + np.arange(r))
        idx = tuple(xj[rows][(slice(None),) + (None,) * yj.ndim] - yj for xj, yj in zip(x, y))
        kin_rows = kin[idx].reshape(r, k)
        mom_rows = [c[idx].reshape(r, k) for c in mom]
        for a in range(spin):
            for b in range(spin):
                out = H[a, rows, b]  # a view: every update lands in H
                if a == b:
                    out += kin_rows
                for j, C in enumerate(mom_rows):
                    out += C * (right[j, rows, a, b, None] + left[j, :, a, b])
                out[diag] += pot[rows, a, b]
                if psi is not None:  # psi(x), then psi(y)
                    out *= psi[rows, None]
                    out *= psi
    return H.reshape(spin * k, spin * k)
