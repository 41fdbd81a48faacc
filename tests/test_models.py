"""Model-builder tests: oracle Hamiltonians, clock construction against the
closed-form spectrum, baths and couplings, fiducial decompositions, random
states, and the gates-file format."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsc import config
from qsc.errors import ParseError, QscError, SelfCheckFailed, UnresolvedSplitting
from qsc.cooling import _qutrit_hamiltonians, clock_setup, grover_setup
from qsc.linalg import DensityMatrix, operator_norm, partial_trace
from qsc.models import (
    _NAMED_GATES,
    ClockModel,
    GroverModel,
    Stream,
    band_energies,
    build_bath_and_couplings,
    build_clock,
    build_grover,
    clock_band_structure,
    clock_coupling_direction,
    embed_gate,
    grover_band_structure,
    grover_fiducial,
    load_circuit,
    overlap_coefficients,
    pad_with_identities,
    parse_circuit,
    random_state,
    random_states,
    shift_factors,
)

from conftest import haar_gate
from oracles import (
    PROJ0,
    _site_projector,
    build_clock_parts,
    clock_hamiltonian_by_parts,
    clock_gap_by_sectors,
    clock_history_by_loop,
    clock_hopping_by_branches,
    decompose_fiducial,
    embed_gate_by_bit_loop,
    history_state,
)


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
        lines.append(f"G {matrix_literal(u)} {targets}")
    return parse_circuit("\n".join(lines), n)


def matrix_literal(u: np.ndarray) -> str:
    """u in the gates format's bracketed literal, every digit kept."""
    return "[" + ",".join(
        "[" + ",".join(f"{c.real:.17g}{c.imag:+.17g}j" for c in row) + "]" for row in u
    ) + "]"


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
        # the overlaps read zero; the band block that runs on them refuses it
        model = GroverModel(n=2, marked=frozenset({1}))
        fiducial = np.eye(4, dtype=complex)[1]
        assert grover_band_structure(fiducial, build_grover(model)).tolist() == [1.0, 0.0]
        with pytest.raises(ValueError, match="overlap every band"):
            grover_setup(model, fiducial)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_fiducial_is_rejected(self, entry):
        model = GroverModel(n=2, marked=frozenset({1}))
        fiducial = np.full(4, 0.5, dtype=complex)
        fiducial[2] = entry
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="overlap every band"):
            grover_setup(model, fiducial)

    @pytest.mark.parametrize("n", [3, 6])
    def test_stack_of_fiducials_is_read_row_by_row(self, n):
        model = GroverModel(n=n, marked=frozenset({0, 5}))
        eigenspaces = build_grover(model)
        stack = np.concatenate(list(random_states(n, 9, 30)))
        xs = grover_band_structure(stack, eigenspaces)
        assert xs.shape == (30, 2)
        for row, f in zip(xs, stack):
            one = grover_band_structure(f, eigenspaces)
            assert one.shape == (2,) and np.array_equal(row, one)

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
        vals = np.linalg.eigvalsh(model.omega * h_prop)
        assert np.allclose(sorted(set(np.round(vals, 12))), [0.0, 1.0])

    def test_history_state_is_zero_mode(self, rng):
        model = ClockModel(circuit=random_circuit(rng, 2, 3))
        h_s = build_clock(model)
        eta = history_state(model)
        assert np.linalg.norm(h_s.matrix @ eta) < 1e-9

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
            np.sum(vecs.conj() * (h_clock @ vecs), axis=0)
        )
        illegal = vals[penalty_weight > 0.5]
        assert np.all(illegal >= 2 * model.omega - 1e-9)
        assert np.max(band_energies(3, model.omega)) < np.min(illegal)

    def test_clock_penalty_commutes(self, rng):
        model = ClockModel(circuit=random_circuit(rng, 1, 3))
        h_prop, h_input, h_clock = build_clock_parts(model)
        assert np.max(np.abs(
            h_clock @ h_prop - h_prop @ h_clock
        )) < 1e-10
        assert np.max(np.abs(
            h_clock @ h_input - h_input @ h_clock
        )) < 1e-10

    def test_band_vectors_are_eigenvectors(self, rng):
        model = ClockModel(circuit=random_circuit(rng, 2, 3))
        h_s = build_clock(model)
        band = clock_band_structure(model, h_s)
        for k in range(band.size):
            res = h_s.matrix @ band.vector(k) - band.omegas[k] * band.vector(k)
            assert np.linalg.norm(res) < 1e-9 * (1 + operator_norm(h_s.matrix))

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
                cols.append(clock_value_vector(length, l, state))
            basis = np.column_stack(cols)
            block = basis.conj().T @ h_s.matrix @ basis
            weight = bin(x).count("1")
            target = model.omega * tri.copy()
            target[0, 0] += model.delta1 * weight
            assert np.max(np.abs(block - target)) < 1e-9


class TestClockPinned:
    """H_S written by index arithmetic equals the sum of the kron-chain
    parts; their hopping term (one controlled-step rule, each moved term
    formed as U_l (x) hop) equals the four-branch construction (whose moved
    terms are the dense products (U_l (x) 1) hop); and the history state
    and band vectors built from one register history equal the
    gate-by-gate loops: all bit for bit."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("length", [1, 2, 3, 5])
    def test_bit_identical(self, n, length):
        rng = np.random.default_rng(1000 * n + length)
        model = ClockModel(circuit=random_circuit(rng, n, length))
        h_prop, _, _ = build_clock_parts(model)
        assert np.array_equal(h_prop, clock_hopping_by_branches(model))
        history, vectors = clock_history_by_loop(model)
        assert np.array_equal(history_state(model), history)
        assert np.array_equal(clock_band_structure(model, build_clock(model)).vectors, vectors)

    def test_shipped_circuits_assemble_to_the_kron_parts(self, circuits_dir):
        for name, n in [("identity_n1_L2.gates", 1), ("x_n1_L2.gates", 1),
                        ("bell_n2_L2.gates", 2), ("random_n2_L3.gates", 2)]:
            model = ClockModel(circuit=load_circuit(circuits_dir / name, n))
            assert build_clock(model).matrix.tobytes() == (
                clock_hamiltonian_by_parts(model).tobytes()), name

    @given(data=st.data())
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    def test_assembly_equals_the_kron_parts(self, data):
        # H_S written by index arithmetic is omega h_prop + delta1 h_input
        # + 2 omega h_clock from the kron chains byte for byte, signed zeros
        # included; the coupling is the kron projector on clock qubit 1
        n = data.draw(st.integers(1, 3), label="n")
        length = data.draw(st.integers(1, 7 - n), label="L")
        gates = ["H", "S", "T", "X", "Y", "Z", "I", "haar"] + (
            ["CX", "CZ", "SWAP", "haar2"] if n > 1 else [])
        lines = []
        for _ in range(length):
            gate = data.draw(st.sampled_from(gates))
            arity = 2 if gate in ("CX", "CZ", "SWAP", "haar2") else 1
            if gate.startswith("haar"):
                seed = data.draw(st.integers(0, 2 ** 32 - 1))
                gate = matrix_literal(haar_gate(np.random.default_rng(seed), 2 ** arity))
            targets = data.draw(st.permutations(range(1, n + 1)))[:arity]
            lines.append(f"G {gate} " + " ".join(map(str, targets)))
        omega = data.draw(st.sampled_from([1.0, 0.7, 2.5]), label="omega")
        h = data.draw(st.sampled_from([config.DEFAULT_PENALTY_FACTOR, 0.3, 0.7]), label="h")
        model = ClockModel(circuit=parse_circuit("\n".join(lines), n), omega=omega, h=h)
        assert build_clock(model).matrix.tobytes() == clock_hamiltonian_by_parts(model).tobytes()
        projector = _site_projector(n + length, {n + 1: PROJ0})
        assert clock_coupling_direction(model).tobytes() == projector.tobytes()

    @pytest.mark.parametrize("text,n", [
        ("G H 1\nG T 1\nG X 1\nG S 1\nG Y 1\nG Z 1", 1),
        ("G H 1\nG CX 1 2\nG T 2\nG SWAP 1 2\nG Y 1", 2),
        ("G CZ 2 1\nG S 2\nG CX 2 1", 2),
    ])
    def test_named_gates_bit_identical(self, text, n):
        model = ClockModel(circuit=parse_circuit(text, n))
        h_prop, _, _ = build_clock_parts(model)
        assert np.array_equal(h_prop, clock_hopping_by_branches(model))


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

    def test_band_gap_within_roundoff(self):
        # a penalty far below eps * ||H_S|| leaves the gap to the eigh's
        # roundoff, the same refusal an exact-tau step's splitting meets
        model = ClockModel(circuit=parse_circuit("G H 1\nG T 1\n", 1), h=1e-20)
        floor = rf"{config.SPLITTING_FLOOR_EPS} \* eps\*\|\|H_S\|\|"
        with pytest.raises(UnresolvedSplitting,
                           match=rf"^band gap .* <= {floor}, .*: it is not resolved; raise h = 1e-20$"):
            clock_band_structure(model, build_clock(model))


class TestClockSpectrum:
    def test_overlaps_single_step(self):
        xs = overlap_coefficients(1)
        assert xs[0] == pytest.approx(1 / math.sqrt(2))
        assert xs[1] == pytest.approx(1 / math.sqrt(2))

    def test_overlaps_three_steps(self):
        xs = overlap_coefficients(3)
        assert xs[0] == pytest.approx(0.5)
        assert xs[1] == pytest.approx(math.sqrt(0.5) * math.cos(math.pi / 8))

    @pytest.mark.parametrize("length", range(1, 9))
    def test_overlaps_normalized(self, length):
        assert np.sum(overlap_coefficients(length) ** 2) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n,length", [(1, 2), (1, 3), (2, 2), (1, 4), (2, 4)])
    def test_gap_matches_first_order(self, n, length):
        # smallest per-unit-weight shift sets the gap at first order in h
        text = "\n".join("G I 1" for _ in range(length))
        model = ClockModel(circuit=parse_circuit(text, n), h=0.1)
        delta = clock_band_structure(model, build_clock(model)).delta
        first_order = model.delta1 * np.min(shift_factors(length))
        assert delta == pytest.approx(first_order, rel=0.3)
        assert delta > 0

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
        dense = clock_band_structure(model, build_clock(model)).delta
        assert closed == pytest.approx(dense, rel=1e-8, abs=0)

    def test_band_energy_formula(self):
        omegas = band_energies(4, omega=2.0)
        for j in range(5):
            assert omegas[j] == pytest.approx(2.0 * (1 - math.cos(j * math.pi / 5)), abs=1e-12)


class TestBathsAndCouplings:
    def test_qubit_bath_spectrum(self):
        h_s = np.diag([0.0, 1.0]).astype(complex)
        h_full, _ = build_bath_and_couplings(h_s, np.zeros((2, 2), dtype=complex), 1.0)
        assert np.allclose(np.sort(np.linalg.eigvalsh(h_full)), [0, 1, 1, 2])

    def test_qutrit_ground_degeneracy(self, rng):
        setup = clock_setup(ClockModel(circuit=random_circuit(rng, 1, 2)))
        band = setup.band
        omega1 = band.omegas[1]
        # the drive H + X is H on the R and L levels: X couples C and B only
        h_full, _ = _qutrit_hamiltonians(setup, 1e-3)
        eta = band.vector(0)
        for bath_index in (1, 2):  # R and L
            e = np.zeros(3, dtype=complex)
            e[bath_index] = 1.0
            psi = np.kron(eta, e)
            val = np.real(psi.conj() @ h_full @ psi)
            assert val == pytest.approx(omega1, abs=1e-12)

    def test_qutrit_excited_splitting(self, rng):
        setup = clock_setup(ClockModel(circuit=random_circuit(rng, 1, 2)))
        band = setup.band
        omega1 = band.omegas[1]
        h_full, _ = _qutrit_hamiltonians(setup, 1e-3)
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
        c = clock_coupling_direction(model)
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
        c = clock_coupling_direction(model)
        s1 = band.vectors @ band.vectors.conj().T
        s2 = np.eye(h_s.dim) - s1
        assert np.linalg.norm(s1 @ c @ s2, 2) < 1e-12


class TestFiducials:
    def test_basis_fiducial(self):
        basis = np.eye(4, dtype=complex)[:, :2]
        dec = decompose_fiducial(np.eye(4, dtype=complex)[0], basis)
        assert dec.xs[0] == pytest.approx(1.0)
        assert dec.xs[1] == pytest.approx(0.0, abs=1e-12)
        assert dec.f_perp == pytest.approx(0.0, abs=1e-9)

    def test_clock_fiducial_matches_closed_form(self, rng):
        model = ClockModel(circuit=random_circuit(rng, 2, 3))
        band = clock_band_structure(model, build_clock(model))
        dec = decompose_fiducial(clock_setup(model).fiducial, band)
        assert np.max(np.abs(dec.xs - overlap_coefficients(3))) < 1e-9
        assert dec.f_perp < 1e-9

    def test_haar_mean_ground_weight(self):
        # E[x_0^2] = N0/N for Haar fiducials
        model = GroverModel(n=3, marked=frozenset({2}))
        stream = Stream(7)
        eigenspaces = build_grover(model)
        vals = []
        for _ in range(500):
            f = random_state(3, stream)
            xs = grover_band_structure(f, eigenspaces)
            vals.append(xs[0] ** 2)
        mean = np.mean(vals)
        se = np.std(vals) / math.sqrt(len(vals))
        assert abs(mean - 1 / 8) < 3 * se + 1e-3


class TestRandomState:
    def test_reproducible(self):
        a = random_state(3, 42)
        b = random_state(3, 42)
        assert np.array_equal(a, b)

    def test_normalized(self):
        v = random_state(4, 0)
        assert v.dtype == complex and abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_haar_first_moment(self):
        stream = Stream(11)
        vals = [abs(random_state(3, stream)[0]) ** 2 for _ in range(10000)]
        mean = np.mean(vals)
        se = np.std(vals) / math.sqrt(len(vals))
        assert abs(mean - 1 / 8) < 3 * se

    def test_a_seed_starts_a_stream_that_later_draws_continue(self):
        stream = Stream(42)
        first, second = random_state(3, stream), random_state(3, stream)
        assert np.array_equal(first, random_state(3, 42))
        z = Stream(42).normal(16)
        assert np.allclose(second, z[8:] / np.linalg.norm(z[8:]), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [3, 12])
    def test_batched_states_are_the_per_draw_states_bit_for_bit(self, n):
        # at n = 12 a batch holds 16 states, so 40 states cross two batch ends
        stream = Stream(5)
        per_draw = [random_state(n, stream) for _ in range(40)]
        batched = np.concatenate(list(random_states(n, 5, 40)))
        assert len(batched) == 40
        for a, b in zip(per_draw, batched):
            assert np.array_equal(a, b)

    def test_a_generator_is_not_a_seed(self):
        with pytest.raises(TypeError):
            random_state(3, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [3, 6, 10, 14])
    def test_a_state_is_its_normals_over_their_per_row_norm(self, n):
        # the batched row norms are the per-row np.linalg.norm, bit for bit
        z = Stream(n).normal(300 << n).reshape(-1, 2 ** n)
        states = np.concatenate(list(random_states(n, n, 300)))
        norms = np.array([np.linalg.norm(row) for row in z])
        assert np.all(np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag)) == norms)
        assert np.all(states == z / norms[:, None])


# Steele-Lea-Flood SplitMix64 outputs for seeds 0 and 1234567
SPLITMIX64_VECTORS = {
    0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F],
    1234567: [6457827717110365317, 3203168211198807973, 9817491932198370423],
}


class TestStream:
    """The counter-based stream: published SplitMix64 words, draws that do
    not depend on their grouping, and uniforms and complex normals whose
    low moments and lag-1 correlation sit within 5 sigma of their laws on
    10^5 draws."""

    N = 10 ** 5

    @pytest.mark.parametrize("seed", sorted(SPLITMIX64_VECTORS))
    def test_published_splitmix64_vectors(self, seed):
        assert Stream(seed).words(3).tolist() == SPLITMIX64_VECTORS[seed]

    def test_a_uniform_is_the_top_53_bits_of_its_word(self):
        u = Stream(0).uniform(3)
        assert u.tolist() == [(w >> 11) * 2.0 ** -53 for w in SPLITMIX64_VECTORS[0]]

    @pytest.mark.parametrize("draw", ["words", "uniform", "normal"])
    def test_draws_do_not_depend_on_their_grouping(self, draw):
        grouped = Stream(2024)
        parts = [getattr(grouped, draw)(3), getattr(grouped, draw)(5)]
        assert np.array_equal(np.concatenate(parts), getattr(Stream(2024), draw)(8))
        # and a later draw continues from the same counter either way
        whole = Stream(2024)
        getattr(whole, draw)(8)
        assert np.array_equal(grouped.words(2), whole.words(2))

    def test_a_word_is_a_function_of_seed_and_counter(self):
        # word k of seed s is SplitMix64's mix of s + (k + 1) * gamma: the
        # stream of s + gamma is the stream of s, one word on
        gamma = 0x9E3779B97F4A7C15
        assert np.array_equal(Stream(5 + gamma).words(4), Stream(5).words(5)[1:])

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_a_seed_outside_64_bits_is_refused(self, seed):
        with pytest.raises(ValueError, match="2\\^64"):
            Stream(seed)

    @pytest.mark.parametrize("draw", ["words", "uniform", "normal"])
    def test_a_stack_of_streams_draws_each_streams_rows(self, draw):
        # row i of every draw of a stack is the same draw of its seed alone
        seeds = np.array([0, 1234567, 2 ** 64 - 1, 17], dtype=np.uint64)
        stack, alone = Stream(seeds), [Stream(int(seed)) for seed in seeds]
        for count in (3, 5):
            rows = getattr(stack, draw)(count)
            assert rows.shape[0] == len(seeds)
            for row, stream in zip(rows, alone):
                assert np.array_equal(row, getattr(stream, draw)(count))

    @pytest.mark.parametrize("seeds", [np.array([1, 2]), np.zeros((2, 2), dtype=np.uint64)])
    def test_a_stack_of_seeds_is_one_row_of_uint64(self, seeds):
        with pytest.raises(ValueError, match="1-D uint64"):
            Stream(seeds)

    def test_the_last_64_bit_seed_draws(self):
        assert np.all(np.isfinite(Stream(2 ** 64 - 1).normal(1000)))

    def test_uniform_moments(self):
        u = Stream(99).uniform(self.N)
        assert u.min() >= 0.0 and u.max() < 1.0
        c = u - 0.5
        n = self.N
        assert abs(c.mean()) < 5 * math.sqrt(1 / 12 / n)
        # the variance 1/12, whose estimate has variance (1/80 - 1/144)/n
        assert abs(np.mean(c ** 2) - 1 / 12) < 5 * math.sqrt((1 / 80 - 1 / 144) / n)
        assert abs(np.mean(c[1:] * c[:-1])) < 5 * (1 / 12) / math.sqrt(n)

    def test_normal_moments(self):
        z = Stream(98).normal(self.N)
        x, y = z.real, z.imag
        n = self.N
        for part in (x, y):
            assert abs(part.mean()) < 5 / math.sqrt(n)
            assert abs(np.mean(part ** 2) - 1) < 5 * math.sqrt(2 / n)
            assert abs(np.mean(part ** 4) - 3) < 5 * math.sqrt(96 / n)
        assert abs(np.mean(x * y)) < 5 / math.sqrt(n)
        assert abs(np.mean(x[1:] * x[:-1])) < 5 / math.sqrt(n)


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
        weight = np.real(eta.conj() @ proj @ eta)
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
            rho = DensityMatrix(np.outer(eta, eta.conj()))
            reg = partial_trace(rho, 2 ** circ.length)
            ideal = np.outer(target, target.conj())
            diff = reg.entries - ideal
            dists.append(float(np.sum(np.abs(np.linalg.eigvalsh(diff)))))
        assert dists[0] > dists[1] > dists[2]


VALID_LITERALS = ["[[0,1],[1,0]]", "[[1,0],[0,1j]]", "[(1,0),(0,-1)]",
                  matrix_literal(haar_gate(np.random.default_rng(1), 2)),
                  matrix_literal(haar_gate(np.random.default_rng(2), 4))]
MALFORMED_LITERALS = [
    "[[1,0],[0,1]", "[[1,0],[0,2]]", "[[1,0],[0,{}]]", "[[None,0],[0,1]]", "[[True,0],[0,1]]",
    "[[1e999,0],[0,1]]", "[[1,0],[0,1" + "0" * 400 + "]]", "[]", "[[]]", "[1,0]",
    "[[1,0,0],[0,1,0]]", "[[[1,0],[0,1]]]", "[[1,0],[0,x]]", "[[1,0],[0,1]]*2",
    "[{[]}]", "[[1,0],[0,{[]:1}]]", "[" * 40 + "]" * 40,
]


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
            "G [[1,0],[0,{}]] 1",       # non-numeric entry
            "G [[None,0],[0,1]] 1",     # non-numeric entry, not NaN
            "G [[1,0],[0,1" + "0" * 400 + "]] 1",  # no float holds it
        ],
    )
    def test_parse_errors(self, line):
        with pytest.raises(ParseError):
            parse_circuit(line + "\n", 2)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_embedding_matches_the_bit_loop(self, rng, n):
        # the array placement writes the bit loop's matrix byte for byte
        # (signed zeros too) for every ordered target tuple, on the named
        # gates and on Haar gates
        for k in (1, 2):
            gates = [m for m in _NAMED_GATES.values() if m.shape == (2 ** k, 2 ** k)]
            gates.append(haar_gate(rng, 2 ** k))
            for targets in itertools.permutations(range(1, n + 1), k):
                for u in gates:
                    got = embed_gate(u, targets, n)
                    want = embed_gate_by_bit_loop(u, targets, n)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (targets, u)

    def test_target_out_of_range(self):
        for target in ("3", "0", "-1"):
            with pytest.raises(ParseError, match=r"^line 2: gate target out of range 1\.\.1$"):
                parse_circuit(f"G H 1\nG H {target}\n", 1)

    @given(data=st.data())
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    def test_a_line_parses_or_is_a_parse_error(self, data):
        # one line over the grammar's tokens, with tokens missing or extra:
        # it parses into gates whose unitaries are unitary, or it is refused
        # as a ParseError, never as another exception
        n = data.draw(st.integers(1, 3), label="n")
        mutated = st.builds(lambda v, i, c: v[:i] + c + v[i + 1:],
                            st.sampled_from(VALID_LITERALS), st.integers(0, 80),
                            st.text("[](){},.+-0123456789ej", max_size=3))
        spec = data.draw(st.one_of(st.sampled_from(sorted(_NAMED_GATES) + [""]),
                                   st.sampled_from(VALID_LITERALS + MALFORMED_LITERALS),
                                   mutated), label="gate")
        head = data.draw(st.sampled_from(["G", "G", "g", "", "G G"]), label="head")
        targets = data.draw(st.lists(st.integers(-1, n + 1).map(str), max_size=3),
                            label="targets")
        line = " ".join([head, spec] + targets)
        try:
            circuit = parse_circuit(line, n)
        except ParseError:
            return
        for u in circuit.unitaries():
            assert np.max(np.abs(u.conj().T @ u - np.eye(2 ** n))) < 1e-9, line

    def test_load_shipped_files(self, circuits_dir):
        for name, n in [
            ("identity_n1_L2.gates", 1),
            ("x_n1_L2.gates", 1),
            ("bell_n2_L2.gates", 2),
            ("random_n2_L3.gates", 2),
        ]:
            circ = load_circuit(circuits_dir / name, n)
            assert circ.length >= 2
