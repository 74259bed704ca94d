"""Dense statevector over n qubits.

Amplitude indexing is little-endian: register 0 is the least significant
bit of the amplitude index.
"""

from __future__ import annotations

import operator

import numpy as np

NORM_TOL = 1e-10

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)

# Top rows of a controlled two-qubit matrix diag(I, U), as nested lists.
_CONTROL_ROWS = [[1, 0, 0, 0], [0, 1, 0, 0]]
_SWAP_ROWS = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
_X_ROWS = [[0, 1], [1, 0]]

# Amplitudes per block in _apply_2x2 (floats per block in _in_blocks): a
# block's operands and temporaries stay in cache across its passes.
_BLOCK = 1 << 14

# On states of at least _WIDE amplitudes, one-qubit gates on registers
# below _TILE_REGS run over contiguous rows (see apply); on higher
# registers the strided halves are as fast.  Measured bounds.
_WIDE = 1 << 15
_ROW_REGS = 4
_TILE_REGS = 12
_MASK_REGS = 8  # collapse over contiguous rows below this register

# (re, im) -> (re, im) of a multiplication by i, in the row-vector form
# x @ m of _apply_rows.
_TIMES_I = np.array([[0.0, 1.0], [-1.0, 0.0]])


class StateVector:
    def __init__(self, n=0, amplitudes=None):
        if amplitudes is not None:
            amplitudes = np.asarray(amplitudes, dtype=complex).reshape(-1)
            size = amplitudes.size
            n = int(np.log2(size)) if size else 0
            if 2**n != size:
                raise ValueError(f"amplitude length {size} is not a power of two")
            self.amps = amplitudes.copy()
        else:
            self.amps = np.zeros(2**n, dtype=complex)
            self.amps[0] = 1.0
        self.n = n

    def copy(self) -> "StateVector":
        return StateVector._of(self.amps.copy(), self.n)

    @staticmethod
    def _of(amps, n) -> "StateVector":
        """A state holding `amps` itself, of n qubits per row (see `_apply`)."""
        state = StateVector.__new__(StateVector)
        state.amps, state.n = amps, n
        return state

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def check_norm(self):
        if abs(self.norm() - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {self.norm()} deviates from 1")

    def _halves(self, reg):
        """Views of the amplitudes whose register `reg` reads 0 and 1."""
        v = self.amps.reshape(-1, 2, 1 << reg)
        return v[:, 0], v[:, 1]

    # ---- composition ----------------------------------------------------
    def append_qubit(self, single=KET0):
        """Tensor a fresh qubit onto the state as the new highest register."""
        single = np.asarray(single, dtype=complex)
        rows = self.amps.reshape(-1, 1, 1 << self.n)  # one per state of a stack
        self.amps = (single[:, None] * rows).reshape(-1)
        self.n += 1

    # ---- unitaries ------------------------------------------------------
    def apply(self, matrix: np.ndarray, targets):
        """Apply a k-qubit unitary to the given registers (control first):
        the checks of registers and shape, which write nothing when they
        fail, then the kernels of `_apply`."""
        targets = list(targets)
        k = len(targets)
        if len(set(targets)) != k:
            raise ValueError("target registers must be distinct")
        for q in targets:
            if not 0 <= q < self.n:
                raise ValueError(f"register {q} out of range for {self.n} qubits")
        u = np.asarray(matrix, dtype=complex)
        if u.shape != (1 << k, 1 << k):
            raise ValueError(f"a {k}-qubit gate needs a {1 << k}x{1 << k} matrix, "
                             f"got shape {u.shape}")
        self._apply(u, u.tolist(), targets)

    def _apply(self, u, rows, targets):
        """`apply` without its checks: `u` is a complex 2^k x 2^k matrix,
        `rows` its `u.tolist()` and `targets` k distinct registers.  The
        walker calls this with steps checked when their program was built,
        also on a stack: states of n qubits laid end to end in `amps`.

        Works in place on `amps`.  One-qubit gates and two-qubit gates of
        the form diag(I, U) (cnot, cz, cy, crx, cry, crz) update strided
        views of the state, and swap exchanges two; any other matrix goes
        through tensordot, state by state.  x, a cnot's X and swap only copy
        (`_exchange`), each contiguous run of amplitudes as one element.  On
        a state of at least _WIDE (2^15) amplitudes a one-qubit gate other
        than x on registers 0 to 11 runs over contiguous rows instead: a
        diagonal one is one multiply by a tile of its factors, any other on
        registers 0 to 3 a product with kron(u, I) and on 4 to 11 a product
        per row, between two diagonal tiles if it is complex.
        Other gates take the views.
        """
        k = len(targets)
        count = self.amps.size >> self.n
        if k == 1:
            q = targets[0]
            if self.amps.size >= _WIDE and rows != _X_ROWS:
                if u[0, 1] == u[1, 0] == 0 and q < _TILE_REGS:
                    _scale_tiled(self.amps, u[0, 0], u[1, 1], q)
                    return
                if q < _ROW_REGS:
                    _apply_rows(self.amps, u, q)
                    return
                if q < _TILE_REGS:
                    if u.imag.any():
                        _apply_phased(self.amps, u, q)
                    else:
                        _apply_real(self.amps, u.real, q)
                    return
            _apply_2x2(rows, *self._halves(q), count)
            return
        if k == 2:
            hi, lo = max(targets), min(targets)
            # axis 1 is register hi, axis 3 register lo
            v = self.amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
            if _is_controlled(rows):  # U acts where the control reads 1
                if targets[0] == hi:
                    a0, a1 = v[:, 1, :, 0], v[:, 1, :, 1]
                else:
                    a0, a1 = v[:, 0, :, 1], v[:, 1, :, 1]
                _apply_2x2([rows[2][2:], rows[3][2:]], a0, a1, count)
                return
            if rows == _SWAP_ROWS:
                _exchange(v[:, 0, :, 1], v[:, 1, :, 0])
                return
        axes = [self.n - 1 - q for q in targets]
        for row in self.amps.reshape((count,) + (2,) * self.n):
            psi = np.tensordot(u.reshape((2,) * (2 * k)), row,
                               axes=(list(range(k, 2 * k)), axes))
            row[...] = np.moveaxis(psi, list(range(k)), axes)

    # ---- measurement ----------------------------------------------------
    def prob_one(self, reg) -> float:
        return min(float(self._sq_norms(reg, 1)[0]), 1.0)  # rounding can exceed 1

    def project(self, reg, bit, drop=False) -> float:
        """Collapse the register to `bit` in place, with `drop` removing it
        (see `collapse`); returns the branch probability.

        The kept half is divided by sqrt(1 - p(other outcome)), not by its
        own norm, so the norm error grows with every measurement.  The
        known-defect test in bench/test_known_defects.py pins this: fixing
        it makes that strict xfail pass, which then fails the bench suite.
        """
        p = 1.0 - float(self._sq_norms(reg, 1 - bit)[0])
        self.collapse(reg, bit, p, drop)
        return p

    def collapse(self, reg, bit, p, drop=False, in_place=True) -> "StateVector":
        """The branch where register `reg` reads `bit`, of probability `p`,
        in one pass: the kept half times 1/sqrt(p), written with `drop`
        straight into a new buffer without the register, else beside a
        zeroed other half (over contiguous rows on a low register of a wide
        state).  `in_place` updates and returns this state; otherwise a new
        state is returned and this one is left unchanged.

        The scale multiplies by the complex 1/sqrt(p) - 0j: numpy divides
        complex128 by a real d as (re + im * 0, im - re * 0) * (1/d), so
        this gives the bytes of `kept / sqrt(p)`, zero signs included,
        through the faster loop.  A float-view multiply loses some zero
        signs and runs over 2-float rows on register 0; a float-view
        `/ sqrt(p)` rounds differently.
        """
        if p <= 0.0:
            raise ValueError(f"projection onto outcome {bit} has zero probability")
        halves = self._halves(reg)
        kept, scale = halves[bit], complex(1.0 / np.sqrt(p), -0.0)
        if self.amps.size >= _WIDE and reg < _MASK_REGS and not drop:
            branch = self if in_place else StateVector._of(np.empty_like(self.amps), self.n)
            _collapse_rows(self.amps, branch.amps, reg, bit, scale)
            return branch
        if in_place and not drop:
            halves[1 - bit][...] = 0.0
            kept *= scale
            return self
        if drop:
            amps = (kept * scale).reshape(-1)
        else:
            amps = np.zeros(self.amps.size, dtype=complex)
            np.multiply(kept, scale, out=amps.reshape(-1, 2, 1 << reg)[:, bit])
        branch = self if in_place else StateVector.__new__(StateVector)
        branch.amps, branch.n = amps, self.n - drop
        return branch

    def _sq_norms(self, reg, bit):
        """Each row's sum of |amplitude|^2 where `reg` reads `bit`, read in
        place as (re, im) pairs, in the order a state of its own sums."""
        f = self.amps.reshape(self.amps.size >> self.n, -1, 2, 1 << reg)[:, :, bit]
        f = f.view(np.float64)
        return np.einsum("bij,bij->b", f, f)

    # ---- comparisons ----------------------------------------------------
    def fidelity(self, other: "StateVector") -> float:
        if self.n != other.n:
            raise ValueError("fidelity requires equal qubit counts")
        return float(abs(np.vdot(self.amps, other.amps)) ** 2)

    def __repr__(self):
        return f"StateVector(n={self.n})"


def _is_controlled(rows):
    """True iff the 4x4 matrix given as rows has the form diag(I, U)."""
    return rows[:2] == _CONTROL_ROWS and rows[2][:2] == rows[3][:2] == [0, 0]


def _apply_2x2(u, a0, a1, count=1):
    """(a0, a1) <- u (a0, a1) in place, for a 2x2 matrix given as rows,
    on the views of `count` stacked states (see _scale_rows).

    Diagonal matrices scale each view (a factor of exactly 1 is skipped);
    anti-diagonal ones swap the views, then scale.  Other matrices run
    block by block (see _blocks) through their temporaries.
    """
    (u00, u01), (u10, u11) = u
    scale = _scale_rows if count > 1 and a0.size == count else operator.imul
    if u01 == 0 and u10 == 0:
        if u00 != 1:
            scale(a0, u00)
        if u11 != 1:
            scale(a1, u11)
        return
    if u00 == 0 and u11 == 0:
        _exchange(a0, a1)
        if u01 != 1:
            scale(a0, u01)
        if u10 != 1:
            scale(a1, u10)
        return
    for b0, b1 in _blocks(a0, a1):
        if u00 == u01 == u10 == -u11:  # Hadamard-like: sum and difference
            diff = b0 - b1
            b0 += b1
            scale(b0, u00)
            np.multiply(diff, u00, out=b1)
        else:
            new1 = b0 * u10
            scale(b0, u00)
            b0 += b1 * u01
            scale(b1, u11)
            b1 += new1


def _scale_rows(a, c):
    """a *= c row by row, where each stacked state holds one element of
    `a`: numpy multiplies one element in place without FMA (fused
    multiply-add), while its array loops fuse."""
    for row in a:
        row *= c


def _scale_tiled(amps, d0, d1, reg):
    """Multiply by diag(d0, d1) on register `reg`: one pass over
    contiguous rows of _BLOCK amplitudes with their tile of factors."""
    rows = amps.reshape(-1, _BLOCK)
    rows *= np.tile(np.repeat([d0, d1], 1 << reg), _BLOCK >> (reg + 1))


def _collapse_rows(amps, out, reg, bit, scale):
    """out = amps * scale where register `reg` reads `bit`, +0.0 elsewhere:
    per block of _BLOCK amplitudes, a multiply, then an AND with a bit mask."""
    mask = np.zeros((_BLOCK >> (reg + 1), 2, 2 << reg), np.uint64)
    mask[:, bit] = ~np.uint64(0)
    for block, dst in zip(amps.reshape(-1, _BLOCK), out.reshape(-1, _BLOCK)):
        np.multiply(block, scale, out=dst)
        np.bitwise_and(dst.view(np.uint64), mask.reshape(-1), out=dst.view(np.uint64))


def _apply_rows(amps, u, reg):
    """Apply the 2x2 `u` to a low register `reg`: each contiguous row of
    2^(reg + 1) amplitudes is multiplied by kron(u, I), as a real matrix
    product over the (re, im) pairs."""
    m = np.kron(u, np.eye(1 << reg)).T
    m = np.kron(m.real, np.eye(2)) + np.kron(m.imag, _TIMES_I)
    _in_blocks(amps.view(np.float64).reshape(-1, len(m)),
               lambda block, out: np.matmul(block, m, out=out))


def _apply_real(amps, u, reg):
    """Apply the real 2x2 `u` to register `reg`: it mixes the two halves
    of each contiguous row of 2^(reg + 1) amplitudes, real and imaginary
    parts alike, so each row is one product u @ (2 x 2^(reg + 1) floats)."""
    _in_blocks(amps.view(np.float64).reshape(-1, 2, 2 << reg),
               lambda block, out: np.matmul(u, block, out=out))


def _apply_phased(amps, u, reg):
    """Apply the complex unitary 2x2 `u` to register `reg` as diag(l) @ m
    @ diag(r), m real (exact but for its smallest entry, which may be a
    fused product's residue): per block of contiguous rows, a multiply by
    a tile of r, the product of `_apply_real` and one by a tile of l."""
    a = np.angle(u)
    a1 = a[1, 1] - a[0, 1] + a[0, 0] if abs(u[0, 0]) >= abs(u[0, 1]) else a[1, 0]
    l, r = np.exp(1j * np.array([a[0, 0], a1])), np.exp(1j * np.array([0.0, a[0, 1] - a[0, 0]]))
    m = (l.conj()[:, None] * u * r.conj()).real
    lt, rt = (np.tile(np.repeat(d, 1 << reg), _BLOCK // (4 << reg)) for d in (l, r))

    def product(block, out):
        block.view(complex).reshape(-1)[...] *= rt
        np.matmul(m, block, out=out)
        out.view(complex).reshape(-1)[...] *= lt
    _in_blocks(amps.view(np.float64).reshape(-1, 2, 2 << reg), product)


def _in_blocks(rows, product):
    """Replace `rows` block by block (_BLOCK floats each) by
    product(block, out), which writes into the block-sized `out`."""
    step = _BLOCK // rows[0].size
    out = np.empty((step,) + rows.shape[1:])
    for i in range(0, len(rows), step):
        block = rows[i:i + step]
        product(block, out)
        block[...] = out


def _exchange(a0, a1):
    """Swap the equal-shaped complex views a0 and a1 in place, block by
    block through one temporary.  Their last axis is contiguous, so each
    run of it (at most _BLOCK amplitudes) copies as one np.void element."""
    run = min(a0.shape[-1], _BLOCK) if a0.size > _BLOCK else 1
    if run > 1:
        a0, a1 = (a.reshape(a.shape[:-1] + (-1, run)).view((np.void, a.itemsize * run))[..., 0]
                  for a in (a0, a1))
    for b0, b1 in _blocks(a0, a1, _BLOCK // run):
        old0 = b0.copy()
        b0[...] = b1
        b1[...] = old0


def _blocks(a0, a1, limit=_BLOCK):
    """Matching sub-views of (a0, a1) of at most `limit` elements, split
    along the leading axes."""
    if a0.size <= limit:
        yield a0, a1
        return
    inner = a0.size // len(a0)
    if inner <= limit:
        step = limit // inner
        for i in range(0, len(a0), step):
            yield a0[i:i + step], a1[i:i + step]
    else:
        for i in range(len(a0)):
            yield from _blocks(a0[i], a1[i], limit)

