"""Model-builder tests: oracle Hamiltonians, clock construction against the
closed-form spectrum, baths and couplings, fiducial decompositions, random
states, and the gates-file format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsc import config
from qsc.errors import ParseError, QscError, SelfCheckFailed
from qsc.linalg import DensityMatrix, Operator, StateVector, operator_norm, partial_trace
from qsc.models import (
    BathSpec,
    ClockModel,
    GroverModel,
    band_energies,
    build_bath_and_couplings,
    build_clock,
    build_clock_parts,
    build_grover,
    clock_band_structure,
    clock_coupling_direction,
    clock_spectrum,
    decompose_fiducial,
    grover_band_structure,
    grover_fiducial,
    history_state,
    load_circuit,
    overlap_coefficients,
    pad_with_identities,
    parse_circuit,
    random_state,
    shift_factors,
)

from oracles import clock_gap_by_sectors, clock_history_by_loop, clock_hopping_by_branches


def haar_gate(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_circuit(rng, n, length):
    lines = []
    for _ in range(length):
        if n == 1:
            u = haar_gate(rng, 2)
            targets = "1"
        else:
            u = haar_gate(rng, 4)
            t = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False))
            targets = f"{t[0]} {t[1]}"
        rows = ",".join(
            "[" + ",".join(f"{c.real:.17g}{c.imag:+.17g}j" for c in row) + "]"
            for row in u
        )
        lines.append(f"G [{rows}] {targets}")
    return parse_circuit("\n".join(lines), n)


class TestGrover:
    def test_single_qubit(self):
        marked, unmarked = build_grover(GroverModel(n=1, marked=frozenset({0})))
        assert marked.tolist() == [0] and unmarked.tolist() == [1]

    def test_two_qubit_two_marked(self):
        marked, unmarked = build_grover(GroverModel(n=2, marked=frozenset({0b00, 0b11})))
        assert marked.tolist() == [0, 3] and unmarked.tolist() == [1, 2]

    def test_trace_counts_unmarked(self):
        # tr H_S = omega1 * (number of unmarked strings)
        _, unmarked = build_grover(GroverModel(n=3, marked=frozenset({0b101})))
        assert len(unmarked) == 7 and 0b101 not in unmarked

    def test_projector_resolution(self):
        # the two eigenspaces partition the computational basis
        marked, unmarked = build_grover(GroverModel(n=3, marked=frozenset({1, 6})))
        assert sorted(marked.tolist() + unmarked.tolist()) == list(range(8))
        assert not set(marked.tolist()) & set(unmarked.tolist())

    def test_band_structure_overlaps(self):
        model = GroverModel(n=4, marked=frozenset({5}))
        f = grover_fiducial(model, "uniform")
        xs = grover_band_structure(f, build_grover(model))
        assert xs[0] == pytest.approx(0.25)
        assert xs[0] ** 2 + xs[1] ** 2 == pytest.approx(1.0)

    def test_fiducial_without_both_bands_is_rejected(self):
        model = GroverModel(n=2, marked=frozenset({1}))
        with pytest.raises(ValueError):
            grover_band_structure(StateVector.basis(4, 1), build_grover(model))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            GroverModel(n=2, marked=frozenset())
        with pytest.raises(ValueError):
            GroverModel(n=2, marked=frozenset(range(4)))


class TestClockConstruction:
    def test_single_step_legal_spectrum(self):
        model = ClockModel(circuit=parse_circuit("G I 1\n", 1))
        h_prop, _, _ = build_clock_parts(model)
        # no clock-penalty pairs exist at L=1; all clock states are legal
        vals = np.linalg.eigvalsh(model.omega * h_prop.matrix)
        assert np.allclose(sorted(set(np.round(vals, 12))), [0.0, 1.0])

    def test_history_state_is_zero_mode(self, rng):
        model = ClockModel(circuit=random_circuit(rng, 2, 3))
        h_s = build_clock(model)
        eta = history_state(model)
        assert np.linalg.norm(h_s.matrix @ eta.amplitudes) < 1e-9

    def test_low_levels_match_band_energies(self, rng):
        model = ClockModel(circuit=random_circuit(rng, 2, 3))
        h_s = build_clock(model)
        vals = np.sort(np.linalg.eigvalsh(h_s.matrix))
        targets = band_energies(3, model.omega)
        # the all-zeros register sector feels no input penalty, so the band
        # energies are exact eigenvalues
        for t in targets:
            assert np.min(np.abs(vals - t)) < 1e-10

    def test_illegal_sector_penalty(self, rng):
        # every eigenstate carrying clock-penalty weight sits at or above
        # twice the energy scale, clear of the cooled band
        model = ClockModel(circuit=random_circuit(rng, 1, 3))
        h_s = build_clock(model)
        _, _, h_clock = build_clock_parts(model)
        vals, vecs = np.linalg.eigh(h_s.matrix)
        penalty_weight = np.real(
            np.sum(vecs.conj() * (h_clock.matrix @ vecs), axis=0)
        )
        illegal = vals[penalty_weight > 0.5]
        assert np.all(illegal >= 2 * model.omega - 1e-9)
        assert np.max(band_energies(3, model.omega)) < np.min(illegal)

    def test_clock_penalty_commutes(self, rng):
        model = ClockModel(circuit=random_circuit(rng, 1, 3))
        h_prop, h_input, h_clock = build_clock_parts(model)
        assert np.max(np.abs(
            h_clock.matrix @ h_prop.matrix - h_prop.matrix @ h_clock.matrix
        )) < 1e-10
        assert np.max(np.abs(
            h_clock.matrix @ h_input.matrix - h_input.matrix @ h_clock.matrix
        )) < 1e-10

    def test_band_vectors_are_eigenvectors(self, rng):
        model = ClockModel(circuit=random_circuit(rng, 2, 3))
        h_s = build_clock(model)
        band = clock_band_structure(model, h_s)
        for k in range(band.size):
            res = h_s.matrix @ band.vector(k) - band.omegas[k] * band.vector(k)
            assert np.linalg.norm(res) < 1e-9 * (1 + operator_norm(h_s))

    def test_ground_unique_in_legal_sector(self, rng):
        model = ClockModel(circuit=random_circuit(rng, 1, 2))
        h_s = build_clock(model)
        vals = np.sort(np.linalg.eigvalsh(h_s.matrix))
        assert vals[0] == pytest.approx(0.0, abs=1e-10)
        assert vals[1] > 0  # nondegenerate ground state

    def test_commutes_with_legal_projector(self, rng):
        model = ClockModel(circuit=random_circuit(rng, 1, 3))
        h_s = build_clock(model)
        n, length = model.n, model.length
        diag = np.zeros(2 ** (n + length))
        for x in range(2 ** n):
            for l in range(length + 1):
                bits = [(x >> (n - 1 - q)) & 1 for q in range(n)]
                bits += [1] * l + [0] * (length - l)
                idx = 0
                for b in bits:
                    idx = (idx << 1) | b
                diag[idx] = 1.0
        p_legal = np.diag(diag.astype(complex))
        comm = h_s.matrix @ p_legal - p_legal @ h_s.matrix
        assert np.max(np.abs(comm)) < 1e-10

    def test_history_conjugated_sector_structure(self, rng):
        # in the history-propagated basis, every register sector's legal
        # block is the tridiagonal hopping matrix plus the sector's Hamming
        # weight times the penalty on the initial site
        model = ClockModel(circuit=random_circuit(rng, 2, 3))
        h_s = build_clock(model)
        n, length = model.n, model.length
        unitaries = model.circuit.unitaries()
        lp1 = length + 1
        tri = np.zeros((lp1, lp1), dtype=complex)
        for l in range(lp1):
            tri[l, l] = 0.5 if l in (0, length) else 1.0
            if l < length:
                tri[l, l + 1] = tri[l + 1, l] = -0.5
        for x in (1, 2, 3):
            reg = np.zeros(2 ** n, dtype=complex)
            reg[x] = 1.0
            cols = []
            state = reg
            from qsc.models import clock_value_vector

            for l in range(lp1):
                if l > 0:
                    state = unitaries[l - 1] @ state
                cols.append(clock_value_vector(n, length, l, state))
            basis = np.column_stack(cols)
            block = basis.conj().T @ h_s.matrix @ basis
            weight = bin(x).count("1")
            target = model.omega * tri.copy()
            target[0, 0] += model.delta1 * weight
            assert np.max(np.abs(block - target)) < 1e-9


class TestClockPinned:
    """The hopping term built by one controlled-step rule, and the history
    state and band vectors built from one register history, equal the
    four-branch construction and the gate-by-gate loops bit for bit."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("length", [1, 2, 3, 5])
    def test_bit_identical(self, n, length):
        rng = np.random.default_rng(1000 * n + length)
        model = ClockModel(circuit=random_circuit(rng, n, length))
        h_prop, _, _ = build_clock_parts(model)
        assert np.array_equal(h_prop.matrix, clock_hopping_by_branches(model))
        history, vectors = clock_history_by_loop(model)
        assert np.array_equal(history_state(model).amplitudes, history)
        assert np.array_equal(clock_band_structure(model).vectors, vectors)


class TestSelfChecks:
    """A failed residual self-check is a package error naming the residual."""

    @staticmethod
    def _model():
        return ClockModel(circuit=parse_circuit("G H 1\nG T 1\n", 1))

    def test_hopping_check(self, monkeypatch):
        model = self._model()
        monkeypatch.setattr(config, "RESIDUAL_RTOL", -1.0)
        with pytest.raises(SelfCheckFailed, match=r"tridiagonal target by \d"):
            build_clock(model)

    def test_band_vector_check(self, monkeypatch):
        model = self._model()
        h_s = build_clock(model)
        monkeypatch.setattr(config, "RESIDUAL_RTOL", -1.0)
        with pytest.raises(SelfCheckFailed, match=r"residual check by \d") as info:
            clock_band_structure(model, h_s)
        assert isinstance(info.value, QscError)


class TestClockSpectrum:
    def test_overlaps_single_step(self):
        xs = overlap_coefficients(1)
        assert xs[0] == pytest.approx(1 / math.sqrt(2))
        assert xs[1] == pytest.approx(1 / math.sqrt(2))

    def test_overlaps_three_steps(self):
        xs = overlap_coefficients(3)
        assert xs[0] == pytest.approx(0.5)
        assert xs[1] == pytest.approx(math.sqrt(0.5) * math.cos(math.pi / 8))

    @pytest.mark.parametrize("length", [1, 2, 3, 5, 8])
    def test_overlaps_normalized(self, length):
        assert np.sum(overlap_coefficients(length) ** 2) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n,length", [(1, 2), (1, 3), (2, 2), (1, 4), (2, 4)])
    def test_gap_matches_first_order(self, n, length):
        # smallest per-unit-weight shift sets the gap at first order in h
        text = "\n".join("G I 1" for _ in range(length))
        model = ClockModel(circuit=parse_circuit(text, n), h=0.1)
        spec = clock_spectrum(model)
        first_order = model.delta1 * np.min(shift_factors(length))
        assert spec.delta == pytest.approx(first_order, rel=0.3)
        assert spec.delta > 0

    @given(data=st.data())
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    def test_gap_is_set_by_the_unary_sectors(self, data):
        # the dense spectrum's gap is the closed form's: n matrices of size
        # L + 1, one per input Hamming weight
        n = data.draw(st.integers(1, 3), label="n")
        length = data.draw(st.integers(1, 7 - n), label="L")
        gates = ["H", "S", "T", "X", "Y", "Z", "I"] + (["CX", "CZ", "SWAP"] if n > 1 else [])
        lines = []
        for _ in range(length):
            gate = data.draw(st.sampled_from(gates))
            arity = 2 if gate in ("CX", "CZ", "SWAP") else 1
            targets = data.draw(st.permutations(range(1, n + 1)))[:arity]
            lines.append(f"G {gate} " + " ".join(map(str, targets)))
        h = data.draw(st.sampled_from([config.DEFAULT_PENALTY_FACTOR, 0.3, 0.7]), label="h")
        model = ClockModel(circuit=parse_circuit("\n".join(lines), n), h=h)
        closed = clock_gap_by_sectors(model)
        assert closed == pytest.approx(clock_band_structure(model).delta, rel=1e-8, abs=0)

    def test_band_energy_formula(self):
        omegas = band_energies(4, omega=2.0)
        for j in range(5):
            assert omegas[j] == pytest.approx(2.0 * (1 - math.cos(j * math.pi / 5)), abs=1e-12)


class TestBathsAndCouplings:
    def test_qubit_bath_spectrum(self):
        h_s = Operator(np.diag([0.0, 1.0]).astype(complex), hermitian=True)
        t_s = Operator(np.zeros((2, 2), dtype=complex), hermitian=True)
        h_full, _ = build_bath_and_couplings(h_s, BathSpec("qubit", 1.0), t_s)
        assert np.allclose(np.sort(np.linalg.eigvalsh(h_full)), [0, 1, 1, 2])

    def test_qutrit_ground_degeneracy(self, rng):
        model = ClockModel(circuit=random_circuit(rng, 1, 2))
        h_s = build_clock(model)
        band = clock_band_structure(model, h_s)
        omega1 = band.omegas[1]
        t_s = Operator(np.zeros_like(h_s.matrix), hermitian=True)
        h_full, _ = build_bath_and_couplings(h_s, BathSpec("qutrit", omega1), t_s)
        eta = band.vector(0)
        for bath_index in (1, 2):  # R and L
            e = np.zeros(3, dtype=complex)
            e[bath_index] = 1.0
            psi = np.kron(eta, e)
            val = np.real(psi.conj() @ h_full @ psi)
            assert val == pytest.approx(omega1, abs=1e-12)

    def test_qutrit_excited_splitting(self, rng):
        model = ClockModel(circuit=random_circuit(rng, 1, 2))
        h_s = build_clock(model)
        band = clock_band_structure(model, h_s)
        omega1 = band.omegas[1]
        t_s = Operator(np.zeros_like(h_s.matrix), hermitian=True)
        h_full, _ = build_bath_and_couplings(h_s, BathSpec("qutrit", omega1), t_s)
        psi = band.vector(2)
        e_psi = band.omegas[2]
        ket_l = np.array([0, 0, 1], dtype=complex)
        ket_r = np.array([0, 1, 0], dtype=complex)
        e_l = np.real(np.kron(psi, ket_l).conj() @ h_full @ np.kron(psi, ket_l))
        e_r = np.real(np.kron(psi, ket_r).conj() @ h_full @ np.kron(psi, ket_r))
        assert e_l == pytest.approx(omega1 - e_psi, abs=1e-12)
        assert e_r == pytest.approx(omega1 + e_psi, abs=1e-12)
        assert e_r - e_l == pytest.approx(2 * e_psi, abs=1e-12)

    def test_coupling_direction_unit_norm(self, rng):
        model = ClockModel(circuit=random_circuit(rng, 1, 3))
        assert operator_norm(clock_coupling_direction(model)) == pytest.approx(1.0)

    def test_coupling_acts_as_fiducial_projector_in_band(self, rng):
        model = ClockModel(circuit=random_circuit(rng, 1, 3))
        h_s = build_clock(model)
        band = clock_band_structure(model, h_s)
        c = clock_coupling_direction(model).matrix
        xs = overlap_coefficients(model.length)
        g = np.zeros(h_s.dim, dtype=complex)
        g[0] = 1.0
        for k in range(band.size):
            out = c @ band.vector(k)
            assert np.linalg.norm(out - xs[k] * g) < 1e-9

    def test_coupling_block_diagonal_across_band_split(self, rng):
        # the single-qubit coupling maps the cooled band into itself, so
        # its cross block to the complement vanishes identically
        model = ClockModel(circuit=random_circuit(rng, 2, 3))
        h_s = build_clock(model)
        band = clock_band_structure(model, h_s)
        c = clock_coupling_direction(model).matrix
        s1 = band.vectors @ band.vectors.conj().T
        s2 = np.eye(h_s.dim) - s1
        assert np.linalg.norm(s1 @ c @ s2, 2) < 1e-12


class TestFiducials:
    def test_basis_fiducial(self):
        basis = np.eye(4, dtype=complex)[:, :2]
        dec = decompose_fiducial(StateVector.basis(4, 0), basis)
        assert dec.xs[0] == pytest.approx(1.0)
        assert dec.xs[1] == pytest.approx(0.0, abs=1e-12)
        assert dec.f_perp == pytest.approx(0.0, abs=1e-9)

    def test_clock_fiducial_matches_closed_form(self, rng):
        model = ClockModel(circuit=random_circuit(rng, 2, 3))
        band = clock_band_structure(model)
        fid = StateVector.basis(2 ** (model.n + model.length), 0)
        dec = decompose_fiducial(fid, band)
        assert np.max(np.abs(dec.xs - overlap_coefficients(3))) < 1e-9
        assert dec.f_perp < 1e-9

    def test_haar_mean_ground_weight(self):
        # E[x_0^2] = N0/N for Haar fiducials
        model = GroverModel(n=3, marked=frozenset({2}))
        rng = np.random.default_rng(7)
        eigenspaces = build_grover(model)
        vals = []
        for _ in range(500):
            f = random_state(3, rng)
            xs = grover_band_structure(f, eigenspaces)
            vals.append(xs[0] ** 2)
        mean = np.mean(vals)
        se = np.std(vals) / math.sqrt(len(vals))
        assert abs(mean - 1 / 8) < 3 * se + 1e-3


class TestRandomState:
    def test_reproducible(self):
        a = random_state(3, 42)
        b = random_state(3, 42)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_normalized(self):
        v = random_state(4, 0)
        assert abs(np.linalg.norm(v.amplitudes) - 1.0) < 1e-12

    def test_haar_first_moment(self):
        rng = np.random.default_rng(11)
        vals = [abs(random_state(3, rng).amplitudes[0]) ** 2 for _ in range(10000)]
        mean = np.mean(vals)
        se = np.std(vals) / math.sqrt(len(vals))
        assert abs(mean - 1 / 8) < 3 * se


class TestPadding:
    def test_zero_padding_unchanged(self, rng):
        circ = random_circuit(rng, 1, 2)
        assert pad_with_identities(circ, 0) is not circ
        assert pad_with_identities(circ, 0).length == 2

    def test_padded_history_weights(self, rng):
        circ = random_circuit(rng, 1, 2)
        padded = pad_with_identities(circ, 4)
        assert padded.length == 6
        model = ClockModel(circuit=padded)
        eta = history_state(model)
        # the final-site component carries weight 1/(L'+1)
        site = np.zeros(2 ** padded.length, dtype=complex)
        site[2 ** padded.length - 1] = 1.0  # |1^L'>
        proj = np.kron(np.eye(2, dtype=complex), np.outer(site, site.conj()))
        weight = np.real(eta.amplitudes.conj() @ proj @ eta.amplitudes)
        assert weight == pytest.approx(1 / 7, abs=1e-12)

    def test_padding_sharpens_register_output(self):
        # single bit flip: traced register state approaches U|0><0|U^+
        base = parse_circuit("G X 1\nG I 1\n", 1)
        target = np.array([0.0, 1.0], dtype=complex)  # X|0>
        dists = []
        for count in (0, 2, 4):
            circ = pad_with_identities(base, count)
            model = ClockModel(circuit=circ)
            eta = history_state(model)
            rho = DensityMatrix(np.outer(eta.amplitudes, eta.amplitudes.conj()))
            reg = partial_trace(rho, [2, 2 ** circ.length], keep=[0])
            ideal = np.outer(target, target.conj())
            diff = reg.entries - ideal
            dists.append(float(np.sum(np.abs(np.linalg.eigvalsh(diff)))))
        assert dists[0] > dists[1] > dists[2]


class TestCircuitFormat:
    def test_named_gates(self):
        circ = parse_circuit("# comment\nG H 1\nG CX 1 2\n\nG X 2\n", 2)
        assert circ.length == 3

    def test_matrix_literal(self):
        circ = parse_circuit("G [[0,1],[1,0]] 1\n", 1)
        assert np.allclose(circ.gates[0].matrix, [[0, 1], [1, 0]])

    def test_complex_literal(self):
        circ = parse_circuit("G [[1,0],[0,1j]] 1\n", 1)
        assert circ.gates[0].matrix[1, 1] == pytest.approx(1j)

    @pytest.mark.parametrize(
        "line",
        [
            "H 1",                      # missing G
            "G FROB 1",                 # unknown gate
            "G H one",                  # bad index
            "G H 1 2",                  # arity mismatch
            "G [[1,0],[0,2]] 1",        # not unitary
            "G [[1,0],[0,1]",           # bad literal
            "G CX 1 1",                 # repeated target
        ],
    )
    def test_parse_errors(self, line):
        with pytest.raises(ParseError):
            parse_circuit(line + "\n", 2)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            parse_circuit("G H 3\n", 2)

    def test_load_shipped_files(self, circuits_dir):
        for name, n in [
            ("identity_n1_L2.gates", 1),
            ("x_n1_L2.gates", 1),
            ("bell_n2_L2.gates", 2),
            ("random_n2_L3.gates", 2),
        ]:
            circ = load_circuit(circuits_dir / name, n)
            assert circ.length >= 2
