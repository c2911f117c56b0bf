import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import coeff_entries, coeff_matrix
import trotterforge.circuit as circuit_module
from trotterforge.circuit import (
    Circuit,
    CompositeDiagonalPhase,
    Gate,
    apply_circuit,
    check_dense_capacity,
    circuit_diagonal,
    circuit_text,
    circuit_to_unitary,
    dense_hamiltonian,
    exact_evolution,
    exact_evolutions,
    hamiltonian_diagonal,
    hamming_projector_mask,
    pauli_string_exponential,
    _spectral_norm,
    spectral_distance,
    subspace_distance,
)
from trotterforge.compilers import (
    compile_avgcost_step,
    compile_lowrank_step,
    compile_sequential_step,
)
from trotterforge.errors import CapacityError, DomainError, ValidationError
from trotterforge.hamlib import (
    PAULI_MATRICES,
    SIGN_RULES,
    HamiltonianSpec,
    PauliKind,
    build_power_law,
    nonzero_terms,
    spec_from_dict,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0 + 0j, -1.0])


# -- oracles --------------------------------------------------------------------


def op_on(n, q, p):
    """Pauli p on qubit q (bit q-1 of the basis index), dense."""
    return np.kron(np.eye(1 << (n - q)), np.kron(p, np.eye(1 << (q - 1))))


def dense_oracle(spec):
    n = spec.n
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    kinds = {PauliKind.X: X, PauliKind.Y: Y, PauliKind.Z: Z}
    for (s1, s2), mat in spec.two_local.items():
        for (j, k), v in coeff_entries(mat).items():
            h += v * op_on(n, j, kinds[s1]) @ op_on(n, k, kinds[s2])
    for s, vec in spec.on_site.items():
        for j in range(1, n + 1):
            h += vec[j - 1] * op_on(n, j, kinds[s])
    return h + spec.identity * np.eye(1 << n)


def pauli_term_matrix(string, n):
    """Dense Pauli string on n qubits by n-fold kron; every entry is 0, +-1 or +-i."""
    axes = dict(string)
    out = PAULI_MATRICES[axes.get(n, PauliKind.I)]
    for q in range(n - 1, 0, -1):
        out = np.kron(out, PAULI_MATRICES[axes.get(q, PauliKind.I)])
    return out


def kron_hamiltonian(spec):
    """H as a sum of kron matrices, added in term_groups() order with the identity last."""
    dim = 1 << spec.n
    h = np.zeros((dim, dim), dtype=complex)
    for kinds, coeffs in spec.term_groups():
        for sites, coeff in nonzero_terms(coeffs):
            h += coeff * pauli_term_matrix(list(zip(sites, kinds)), spec.n)
    if spec.identity != 0.0:
        h += spec.identity * np.eye(dim, dtype=complex)
    return h


def evolution_oracle(spec, t):
    return expm(-1j * t * dense_oracle(spec))


_ORACLE_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_ORACLE_S = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)
_ORACLE_CNOT = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)  # index = z_ctrl + 2 z_tgt


_ORACLE_AXES = {"RX": X, "RY": Y, "RZ": Z}


def oracle_gate(g):
    """(qubits, dense matrix) or (qubits, diagonal phase angles), index bit i on qubits[i]."""
    if g.name in _ORACLE_AXES:
        p = _ORACLE_AXES[g.name]
        return (g.q,), math.cos(g.angle / 2.0) * np.eye(2) - 1j * math.sin(g.angle / 2.0) * p
    if g.name == "H":
        return (g.q,), _ORACLE_H
    if g.name == "S":
        return (g.q,), _ORACLE_S
    if g.name == "CNOT":
        return (g.q, g.q2), _ORACLE_CNOT
    if g.name == "CPHASE":
        return (g.q, g.q2), np.array([0.0, 0.0, 0.0, g.angle])
    return g.qubits, g.phases


def moveaxis_lowering(c):
    """Slow lowering: each gate's matrix applied on its qubit axes moved to the front."""
    nq = c.qubit_count
    dim = 1 << nq
    x = np.arange(dim)
    u = np.eye(dim, dtype=complex)
    for g in c.gates:
        qubits, op = oracle_gate(g)
        if op.ndim == 1:
            sub = np.zeros(dim, dtype=np.int64)
            for i, q in enumerate(qubits):
                sub |= ((x >> (q - 1)) & 1) << i
            u = np.exp(1j * op[sub])[:, None] * u
            continue
        k = len(qubits)
        axes = [nq - q for q in reversed(qubits)]  # op row index has qubits[0] as its low bit
        t = np.moveaxis(u.reshape((2,) * nq + (dim,)), axes, range(k))
        shape = t.shape
        t = op @ t.reshape(1 << k, -1)
        u = np.ascontiguousarray(np.moveaxis(t.reshape(shape), range(k), axes).reshape(dim, dim))
    return u


def max_err(u, v):
    return np.abs(np.asarray(u) - np.asarray(v)).max()


# -- lowering ---------------------------------------------------------------------


def test_cnot_rz_cnot_is_zz_exponential():
    theta = 0.4
    circ = Circuit(2, (Gate("CNOT", 1, 2), Gate("RZ", 2, None, 2 * theta), Gate("CNOT", 1, 2)))
    want = np.diag(np.exp(-1j * theta * np.array([1.0, -1.0, -1.0, 1.0])))
    assert max_err(circuit_to_unitary(circ), want) < 1e-12


def test_single_z_rotation_phases():
    t = math.pi / 2.0
    circ = pauli_string_exponential([(1, PauliKind.Z)], t)
    u = circuit_to_unitary(circ)
    assert u[0, 0] == pytest.approx(np.exp(-1j * t))
    assert u[1, 1] == pytest.approx(np.exp(+1j * t))


def test_x_exponential_is_rx():
    theta = 0.73
    circ = pauli_string_exponential([(1, PauliKind.X)], theta)
    want = math.cos(theta) * np.eye(2) - 1j * math.sin(theta) * X
    assert max_err(circuit_to_unitary(circ), want) < 1e-12


@pytest.mark.parametrize("kind,mat", [(PauliKind.X, X), (PauliKind.Y, Y), (PauliKind.Z, Z)])
def test_two_qubit_string_exponentials(kind, mat):
    theta = -0.31
    circ = pauli_string_exponential([(1, kind), (3, PauliKind.Z)], theta, qubit_count=3)
    p = op_on(3, 1, mat) @ op_on(3, 3, Z)
    assert max_err(circuit_to_unitary(circ), expm(-1j * theta * p)) < 1e-12


def test_identity_string_rules():
    circ = pauli_string_exponential([(2, PauliKind.I)], 0.0, qubit_count=2)
    assert circ.gates == ()
    with pytest.raises(ValidationError):
        pauli_string_exponential([(2, PauliKind.I)], 0.5)
    with pytest.raises(ValidationError):
        pauli_string_exponential([], 0.1)


def test_gate_order_is_temporal():
    circ = Circuit(1, (Gate("H", 1), Gate("S", 1)))
    s = np.diag([1.0, 1j])
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    assert max_err(circuit_to_unitary(circ), s @ h) < 1e-12


def test_diagonal_gates():
    circ = Circuit(2, (Gate("CPHASE", 1, 2, math.pi),))
    assert max_err(circuit_to_unitary(circ), np.diag([1, 1, 1, -1.0])) < 1e-12
    circ = Circuit(2, (Gate("CPHASE", 1, 2, 0.7),))
    assert max_err(circuit_to_unitary(circ), np.diag([1, 1, 1, np.exp(0.7j)])) < 1e-12


def test_composite_diagonal_phase_lowering():
    # entry idx: bit 0 of idx on qubit 1, bit 1 on qubit 3
    gate = CompositeDiagonalPhase((1, 3), [0.0, 0.2, 0.9, 0.2 + 0.9], cost=5)
    circ = Circuit(3, (gate,))
    u = circuit_to_unitary(circ)
    x = np.arange(8)
    want = np.exp(1j * (0.2 * ((x >> 0) & 1) + 0.9 * ((x >> 2) & 1)))
    assert max_err(u, np.diag(want)) < 1e-12
    assert circ.cost() == 5


def test_composite_phase_table_is_checked_and_read_only():
    with pytest.raises(ValidationError):
        CompositeDiagonalPhase((1, 2), [0.0, 0.1, 0.2], cost=1)  # two qubits need 4 entries
    with pytest.raises(ValidationError):
        CompositeDiagonalPhase((1,), np.zeros((2, 1)), cost=1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            CompositeDiagonalPhase((1,), [0.0, bad], cost=1)
    given = np.array([0.0, 0.5])
    gate = CompositeDiagonalPhase((1,), given, cost=1)
    given[1] = 9.0  # the writable input was copied
    assert gate.phases.tolist() == [0.0, 0.5] and gate.phases.dtype == np.float64
    with pytest.raises(ValueError):
        gate.phases[0] = 1.0
    # read-only input is shared, not copied
    assert CompositeDiagonalPhase((2,), gate.phases, cost=1).phases is gate.phases


@pytest.mark.parametrize("gate, message", [
    pytest.param(Gate("T", 1), "^unknown gate 'T'$", id="unknown-name"),
    pytest.param(Gate("rz", 1, None, 0.5), "^unknown gate 'rz'$", id="lowercase-name"),
    pytest.param(Gate("COMPOSITE", 1), "^unknown gate 'COMPOSITE'$", id="gate-posing-as-composite"),
    pytest.param(Gate("H", 1, 2), "needs 1 qubit$", id="h-on-two-qubits"),
    pytest.param(Gate("CNOT", 1), "needs 2 qubits$", id="cnot-on-one-qubit"),
    pytest.param(Gate("CPHASE", 1, None, 0.5), "needs 2 qubits$", id="cphase-on-one-qubit"),
    pytest.param(Gate("S", 1, None, 0.5), "takes no angle$", id="s-with-angle"),
    pytest.param(Gate("CNOT", 1, 2, 0.5), "takes no angle$", id="cnot-with-angle"),
    pytest.param(Gate("RY", 1), "needs an angle$", id="rotation-without-angle"),
    pytest.param(Gate("CPHASE", 1, 2), "needs an angle$", id="cphase-without-angle"),
    *[pytest.param(Gate("RX", 1, None, bad), "^rotation angle must be finite$", id=f"rotation-{bad}")
      for bad in (math.inf, -math.inf, math.nan)],
    *[pytest.param(Gate("CPHASE", 1, 2, bad), "^controlled phase angle must be finite$", id=f"cphase-{bad}")
      for bad in (math.inf, -math.inf, math.nan)],
    pytest.param(Gate("CNOT", 1, 1), "repeats a qubit$", id="cnot-repeat"),
    pytest.param(Gate("CPHASE", 2, 2, 0.5), "repeats a qubit$", id="cphase-repeat"),
    pytest.param(CompositeDiagonalPhase((1, 1), np.zeros(4), cost=1), "repeats a qubit$", id="composite-repeat"),
    pytest.param(Gate("H", 3), "touches qubit 3 out of range$", id="h-past-the-top"),
    pytest.param(Gate("RZ", 0, None, 0.5), "touches qubit 0 out of range$", id="rotation-on-qubit-0"),
    pytest.param(Gate("CNOT", 1, 3), "touches qubit 3 out of range$", id="cnot-target-past-the-top"),
    pytest.param(CompositeDiagonalPhase((2, 3), np.zeros(4), cost=1), "touches qubit 3 out of range$",
                 id="composite-past-the-top"),
])
def test_circuit_refuses_a_malformed_gate(gate, message):
    with pytest.raises(ValidationError, match=message):
        Circuit(2, (Gate("H", 1), gate))


def test_gates_have_a_name_qubits_and_a_cost():
    composite = CompositeDiagonalPhase((3, 1), np.zeros(4), cost=7)
    gates = [Gate("RX", 2, None, 0.5), Gate("S", 1), Gate("CNOT", 3, 1), Gate("CPHASE", 1, 2, 0.5), composite]
    assert [g.name for g in gates] == ["RX", "S", "CNOT", "CPHASE", "COMPOSITE"]
    assert [g.qubits for g in gates] == [(2,), (1,), (3, 1), (1, 2), (3, 1)]
    assert [g.cost for g in gates] == [1, 1, 1, 1, 7]
    assert Circuit(3, gates).cost() == 11


def test_circuit_validation(fake_physical_memory):
    with pytest.raises(ValidationError):
        Circuit(2, (Gate("CNOT", 1, 1),))
    with pytest.raises(ValidationError):
        Circuit(2, (Gate("H", 3),))
    fake_physical_memory(1)
    with pytest.raises(CapacityError, match=r"^lowering a 14-qubit circuit .* needs 8.0 GiB"):
        circuit_to_unitary(Circuit(14, ()))


angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 8))
    qubit = st.integers(1, n)
    kinds = [
        st.tuples(st.sampled_from(["RX", "RY", "RZ"]), qubit, angles).map(lambda a: Gate(a[0], a[1], None, a[2])),
        st.tuples(st.sampled_from(["H", "S"]), qubit).map(lambda a: Gate(*a)),
        st.lists(qubit, min_size=1, max_size=min(n, 3), unique=True).flatmap(
            lambda qs: st.lists(angles, min_size=1 << len(qs), max_size=1 << len(qs)).map(
                lambda table: CompositeDiagonalPhase(tuple(qs), table, cost=1)
            )
        ),
    ]
    if n >= 2:
        pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
        kinds += [
            pair.map(lambda qs: Gate("CNOT", *qs)),
            pair.map(lambda qs: Gate("CPHASE", *qs, math.pi)),
            st.tuples(pair, angles).map(lambda a: Gate("CPHASE", *a[0], a[1])),
        ]
    return Circuit(n, tuple(draw(st.lists(st.one_of(kinds), max_size=16))))


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_lowering_matches_moveaxis_oracle_bit_for_bit(circ):
    assert np.array_equal(circuit_to_unitary(circ), moveaxis_lowering(circ))


def cnot_placements():
    for n in (2, 3, 5, 8):
        pairs = {(1, 2), (2, 1), (1, n), (n, 1), (n - 1, n), (n, n - 1), (2, n), (n, 2)}
        if n >= 4:
            pairs |= {(2, n - 1), (n - 1, 2), (2, 3), (3, 2)}
        for ctrl, tgt in sorted(pairs):
            if ctrl != tgt:
                yield pytest.param(n, ctrl, tgt, id=f"n{n}-c{ctrl}-t{tgt}")


@pytest.mark.parametrize("n, ctrl, tgt", list(cnot_placements()))
def test_cnot_row_swap_matches_moveaxis_oracle(n, ctrl, tgt):
    # rotations first, so the CNOT permutes rows of a dense matrix
    layer = [Gate("RY", q, None, 0.3 + 0.1 * q) for q in range(1, n + 1)]
    layer += [Gate("RX", q, None, -0.2 * q) for q in range(1, n + 1)]
    circ = Circuit(n, (*layer, Gate("CNOT", ctrl, tgt), Gate("H", ctrl), Gate("CNOT", tgt, ctrl)))
    assert np.array_equal(circuit_to_unitary(circ), moveaxis_lowering(circ))


@pytest.mark.parametrize("method", ["sequential", "lowrank", "avgcost"])
def test_mixed_step_lowering_matches_moveaxis_oracle(method):
    xx, zz = (PauliKind.X, PauliKind.X), (PauliKind.Z, PauliKind.Z)
    groups = {
        xx: build_power_law(8, 1, 2.0, xx, "seeded-random", 0).two_local[xx],
        zz: build_power_law(8, 1, 1.0, zz, "seeded-random", 1).two_local[zz],
    }
    spec = HamiltonianSpec(8, 1, groups, {})
    step = {
        "sequential": lambda: compile_sequential_step(spec, 0.1, 2),
        "lowrank": lambda: compile_lowrank_step(spec, 0.1, 1e-9, 4, 2),
        "avgcost": lambda: compile_avgcost_step(spec, 0.1, 2, 2),
    }[method]()
    assert np.array_equal(circuit_to_unitary(step.circuit), moveaxis_lowering(step.circuit))


def test_phase_table_index_is_built_once_per_qubit_tuple(monkeypatch):
    rng = np.random.default_rng(3)
    tuples = [(1, 3), (4, 2, 5), (1, 3), (5,), (4, 2, 5), (1, 3)]
    gates = []
    for qs in tuples:
        gates += [CompositeDiagonalPhase(qs, rng.uniform(-3, 3, 1 << len(qs)), cost=1), Gate("H", qs[0])]
    cz = Gate("CPHASE", 1, 3, math.pi)
    circ = Circuit(5, (*gates, cz, Gate("CPHASE", 3, 1, 0.4), cz))
    calls = []
    index = circuit_module._diagonal_index
    monkeypatch.setattr(circuit_module, "_diagonal_index", lambda qs, nq: calls.append(qs) or index(qs, nq))
    # the oracle rebuilds the index for every gate
    assert np.array_equal(circuit_to_unitary(circ), moveaxis_lowering(circ))
    assert sorted(calls) == sorted({(1, 3), (4, 2, 5), (5,), (3, 1)})
    x = np.arange(32)
    for qs in tuples:
        assert np.array_equal(index(qs, 5), sum(((x >> (q - 1)) & 1) << i for i, q in enumerate(qs)))


def test_apply_circuit_lowers_any_column_block():
    xx, zz = (PauliKind.X, PauliKind.X), (PauliKind.Z, PauliKind.Z)
    groups = {pair: build_power_law(8, 1, 1.5, pair, "seeded-random", i).two_local[pair]
              for i, pair in enumerate((xx, zz))}
    step = compile_lowrank_step(HamiltonianSpec(8, 1, groups, {}), 0.1, 1e-9, 2, 2)
    u = circuit_to_unitary(step.circuit)
    eye = np.eye(256, dtype=complex)
    assert np.array_equal(apply_circuit(step.circuit, eye.copy()), u)
    block = apply_circuit(step.circuit, eye[:, 4:8].copy())
    assert block.shape == (256, 4) and max_err(block, u[:, 4:8]) < 1e-13
    for bad in (eye[:, :4], np.eye(128, dtype=complex), np.eye(256)):  # strided, too short, real
        with pytest.raises(ValidationError, match="C-contiguous complex"):
            apply_circuit(step.circuit, bad)


# -- dense Hamiltonians and evolution ------------------------------------------------


def zz_chain_spec(n, value=1.0):
    entries = {(j, j + 1): value for j in range(1, n)}
    return HamiltonianSpec(n, 1, {(PauliKind.Z, PauliKind.Z): coeff_matrix(n, entries)}, {})


def test_exact_evolution_vs_expm():
    spec = zz_chain_spec(3)
    assert spectral_distance(exact_evolution(spec, 0.3), evolution_oracle(spec, 0.3)) < 1e-9


def test_exact_evolutions_match_one_evolution_per_t():
    spec = build_power_law(4, 1, 1.5, (PauliKind.X, PauliKind.Z), "seeded-random", 2)
    ts = (0.05, 0.1, 0.2, 0.1)
    for t, u in zip(ts, exact_evolutions(spec, ts), strict=True):
        assert np.array_equal(u, exact_evolution(spec, t))


def z_field_spec(n):
    """Spec file with a ZZ chain, an on-site Z field and an identity offset: diagonal for any n >= 1."""
    return spec_from_dict({
        "n": n, "d": 1,
        "terms": [{"sigma": "z", "sigma2": "z", "entries": [[j, j + 1, 0.7 / j] for j in range(1, n)]}],
        "onsite": {"z": [0.3 * (-1) ** j + 0.1 * j for j in range(n)]},
        "identity": -0.45,
    })


DIAGONAL_SPECS = (
    [pytest.param(lambda n=n: z_field_spec(n), id=f"z-field-n{n}") for n in range(1, 11)]
    + [pytest.param(lambda n=n: build_power_law(n, 1, 1.5, sign_rule=SIGN_RULES[n % 3], seed=n),
                    id=f"zz-1d-{SIGN_RULES[n % 3]}-n{n}") for n in range(2, 11)]
    + [pytest.param(lambda n=n, r=r: build_power_law(n, 2, 2.0, sign_rule=r, seed=n), id=f"zz-2d-{r}-n{n}")
       for n in (4, 9) for r in SIGN_RULES]
)


@pytest.mark.parametrize("make_spec", DIAGONAL_SPECS)
def test_diagonal_exact_evolutions_equal_the_eigh_formula_bit_for_bit(make_spec):
    spec = make_spec()
    w, v = np.linalg.eigh(dense_hamiltonian(spec))
    ts = (0.1, 1.0)
    for t, u in zip(ts, exact_evolutions(spec, ts), strict=True):
        assert np.array_equal(u, (v * np.exp(-1j * t * w)) @ v.conj().T)


def eigh_spy(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
    return calls


def test_eigh_runs_once_per_sweep_on_every_spec(monkeypatch):
    calls = eigh_spy(monkeypatch)
    ts = (0.1, 0.2, 0.3)
    x_site = HamiltonianSpec(5, 1, z_field_spec(5).two_local, {PauliKind.X: np.array([0, 0, 0.2, 0, 0])})
    for spec in (z_field_spec(5), build_power_law(6, 1, 2.0, sign_rule="seeded-random"), x_site,
                 build_power_law(5, 1, 2.0, (PauliKind.Z, PauliKind.Y)),
                 build_power_law(4, 1, 1.0, (PauliKind.X, PauliKind.X))):
        calls.clear()
        assert len(list(exact_evolutions(spec, ts))) == 3
        assert calls == [(1 << spec.n, 1 << spec.n)]


def test_exact_evolution_is_sized_at_its_peak_before_eigh(monkeypatch, fake_physical_memory):
    calls = eigh_spy(monkeypatch)
    spec = build_power_law(8, 1, 1.0, (PauliKind.X, PauliKind.X))  # one 2^8 x 2^8 matrix is 1 MiB
    fake_physical_memory(4.5 / 1024)  # holds H and three more copies, not the fifth
    dense_hamiltonian(spec)
    message = r"^exact evolution of a 8-qubit Hamiltonian \(5 dense 2\^8 x 2\^8 matrices\) needs 0.0 GiB"
    with pytest.raises(CapacityError, match=message):
        exact_evolution(spec, 0.1)
    assert calls == []
    fake_physical_memory(5 / 1024)
    exact_evolution(spec, 0.1)
    assert calls == [(256, 256)]


def test_spectral_distance_is_sized_at_its_peak_before_the_svd(monkeypatch, fake_physical_memory):
    u, v = np.eye(256, dtype=complex), np.zeros((256, 256), dtype=complex)  # 1 MiB each
    calls = svd_spy(monkeypatch)
    fake_physical_memory(3.5 / 1024)  # holds u, v and their difference, not the SVD's copy
    with pytest.raises(CapacityError, match=r"^a spectral distance of \(256, 256\) matrices \(4 copies\)"):
        spectral_distance(u, v)
    assert calls == []
    fake_physical_memory(4 / 1024)
    assert spectral_distance(u, v) == 1.0
    assert calls == [(256, 256)]


def test_the_dense_helpers_peak_within_the_upfront_check():
    # check_dense_capacity runs before verify and error-sweep compile, so its message is the one they print
    assert max(circuit_module._EIGH_COPIES, circuit_module._DISTANCE_COPIES) <= circuit_module.DENSE_COPIES


def diagonal_steps(spec, p):
    """Every compiled step of a Z-only spec that its size admits, at t 0.1 and 1."""
    n = spec.n
    for t in (0.1, 1.0):
        yield compile_sequential_step(spec, t, p)
        if spec.d == 1 and n >= 2 and n & (n - 1) == 0:
            yield compile_lowrank_step(spec, t, 1e-9, max(1, n // 4), p)
            yield compile_avgcost_step(spec, t, max(1, n // 4), p)


@pytest.mark.parametrize("make_spec", DIAGONAL_SPECS)
def test_circuit_diagonal_equals_the_dense_diagonal_bit_for_bit(make_spec):
    spec = make_spec()
    for p in (1, 2) if spec.n >= 9 else (1, 2, 4):  # p=4 lowers thousands of dense gates past n=8
        for step in diagonal_steps(spec, p):
            assert np.array_equal(circuit_diagonal(step.circuit), circuit_to_unitary(step.circuit).diagonal())


@settings(max_examples=100, deadline=None)
@given(circuits())
def test_a_circuit_conjugated_by_cnots_has_the_dense_diagonal(circ):
    n = circ.qubit_count
    ladder = [g for g in circ.gates if g.name == "CNOT"]
    body = [g for g in circ.gates if g.name in ("CPHASE", "COMPOSITE", "S", "RZ")]
    diagonal = Circuit(n, (*ladder, *body, *reversed(ladder)))  # the CNOTs compose to the identity
    assert np.array_equal(circuit_diagonal(diagonal), circuit_to_unitary(diagonal).diagonal())


@pytest.mark.parametrize("gates", [
    pytest.param((Gate("CNOT", 1, 2),), id="lone-cnot"),
    pytest.param((Gate("CNOT", 1, 2), Gate("CNOT", 2, 1)), id="cnot-cycle"),
    pytest.param((Gate("RZ", 1, None, 0.3), Gate("H", 2)), id="hadamard"),
    pytest.param((Gate("RX", 2, None, 0.3),), id="x-rotation"),
])
def test_circuit_diagonal_rejects_a_circuit_that_is_not_diagonal(gates):
    with pytest.raises(ValidationError, match="not diagonal"):
        circuit_diagonal(Circuit(2, gates))


def cnots_permute_no_basis_state(c):
    """Oracle: the CNOTs' row swaps, applied to the column of basis indices, leave it as it was."""
    dim = 1 << c.qubit_count
    perm = np.arange(dim).reshape(dim, 1)
    for g in c.gates:
        if g.name == "CNOT":
            circuit_module._swap_cnot_rows(perm, g.q, g.q2, np.empty_like(perm))
    return np.array_equal(perm[:, 0], np.arange(dim))


@st.composite
def cnot_sequences(draw):
    n = draw(st.integers(2, 6))
    pairs = draw(st.lists(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True), max_size=10))
    if draw(st.booleans()):  # a sequence followed by its mirror composes to the identity
        pairs += pairs[::-1]
    return Circuit(n, tuple(Gate("CNOT", *qs) for qs in pairs))


@settings(max_examples=200, deadline=None)
@given(cnot_sequences())
def test_cnot_bit_masks_agree_with_the_permutation_column(circ):
    if cnots_permute_no_basis_state(circ):
        assert np.array_equal(circuit_diagonal(circ), np.ones(1 << circ.qubit_count))
    else:
        with pytest.raises(ValidationError, match="do not compose to the identity"):
            circuit_diagonal(circ)


def test_circuit_diagonal_is_sized_before_it_allocates(fake_physical_memory):
    fake_physical_memory(1)
    message = r"^lowering a 24-qubit diagonal circuit \(2\^24 x 4 blocks\) needs 2.0 GiB"
    with pytest.raises(CapacityError, match=message):
        circuit_diagonal(Circuit(24, (Gate("CNOT", 1, 2), Gate("CNOT", 1, 2))))


@pytest.mark.parametrize("make_spec", DIAGONAL_SPECS)
def test_hamiltonian_diagonal_equals_the_dense_diagonal_bit_for_bit(make_spec):
    spec = make_spec()
    assert np.array_equal(hamiltonian_diagonal(spec), dense_hamiltonian(spec).diagonal().real)


def test_hamiltonian_diagonal_needs_a_z_only_spec():
    for spec in (build_power_law(4, 1, 1.0, (PauliKind.X, PauliKind.X)),
                 HamiltonianSpec(3, 1, {}, {PauliKind.Y: np.array([0.0, 0.1, 0.0])})):
        with pytest.raises(ValidationError, match="not diagonal"):
            hamiltonian_diagonal(spec)
    # a group whose coefficients are all 0 adds no term
    spec = HamiltonianSpec(4, 1, {(PauliKind.X, PauliKind.X): coeff_matrix(4, {})}, {}, identity=0.25)
    assert np.array_equal(hamiltonian_diagonal(spec), np.full(16, 0.25))


def test_dense_hamiltonian_mixed_terms():
    mats = {
        (PauliKind.X, PauliKind.Y): coeff_matrix(2, {(1, 2): 0.4}),
        (PauliKind.Z, PauliKind.Z): coeff_matrix(2, {(1, 2): -1.1}),
    }
    spec = HamiltonianSpec(2, 1, mats, {PauliKind.X: np.array([0.2, 0.0])}, identity=0.5)
    assert max_err(dense_hamiltonian(spec), dense_oracle(spec)) < 1e-12


@pytest.mark.parametrize(
    "n, tags, onsite, identity",
    [
        pytest.param(n, tags, onsite, identity, id=f"{'+'.join(tags)}+{onsite or '-'}-n{n}")
        for n, tags, onsite, identity in [
            (2, ["xy"], "", 0.0),
            (3, ["yy"], "z", 0.5),
            (4, ["xz"], "xyz", 0.0),
            (5, ["xy", "yy", "zz"], "x", -1.25),
            (6, ["xz", "yz", "zx", "zy"], "xy", 0.3),
            (8, ["xz", "yy"], "xz", 2.0),
            (8, ["xx", "xy", "yx", "yy"], "y", 0.0),
        ]
    ],
)
def test_dense_hamiltonian_matches_kron_oracle_bit_for_bit(n, tags, onsite, identity):
    pairs = [(PauliKind.from_tag(t[0]), PauliKind.from_tag(t[1])) for t in tags]
    groups = {
        pair: build_power_law(n, 1, 1.5, pair, "seeded-random", i).two_local[pair]
        for i, pair in enumerate(pairs)
    }
    rng = np.random.default_rng(n)
    fields = {}
    for tag in onsite:
        vec = rng.normal(size=n)
        vec[rng.integers(n)] = 0.0
        fields[PauliKind.from_tag(tag)] = vec
    spec = HamiltonianSpec(n, 1, groups, fields, identity=identity)
    got, want = dense_hamiltonian(spec), kron_hamiltonian(spec)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def test_dense_capacity_cap(fake_physical_memory):
    fake_physical_memory(1)
    with pytest.raises(CapacityError, match=r"^a dense 15-qubit Hamiltonian .* needs 16.0 GiB"):
        dense_hamiltonian(zz_chain_spec(15))


# -- distances -------------------------------------------------------------------------


def test_global_phase_distance():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    for phi in (0.1, 1.0, math.pi):
        assert spectral_distance(np.exp(1j * phi) * q, q) == pytest.approx(
            2.0 * abs(math.sin(phi / 2.0))
        )


def test_subspace_distance_bounded_by_spectral():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        b, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        full = spectral_distance(a, b)
        for eta in range(5):
            assert subspace_distance(a, b, eta) <= full + 1e-12


def svd_spy(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a.shape) or svd(a, **kw))
    return calls


def random_phase_diagonal(rng, dim):
    return np.diag(np.exp(1j * rng.uniform(-math.pi, math.pi, dim)))


def test_spectral_norm_of_a_diagonal_is_its_largest_entry_within_4_ulp_of_the_svd():
    rng = np.random.default_rng(7)
    diffs = [rng.uniform(1e-15, 1.0) * (random_phase_diagonal(rng, dim) - random_phase_diagonal(rng, dim))
             for dim in (1, 2, 5, 64, 256) for _ in range(4)]
    for d in diffs:
        want = np.linalg.svd(d, compute_uv=False)[0]
        got = _spectral_norm(d)
        assert got == want
        assert abs(np.abs(d.diagonal()).max() - want) <= 4 * np.spacing(want)


def test_a_tiny_off_diagonal_entry_takes_the_svd(monkeypatch):
    rng = np.random.default_rng(8)
    d = random_phase_diagonal(rng, 16) - random_phase_diagonal(rng, 16)
    d[3, 11] = 1e-300
    want = float(np.linalg.svd(d, compute_uv=False)[0])
    calls = svd_spy(monkeypatch)
    assert _spectral_norm(d) == want
    assert spectral_distance(d, np.zeros_like(d)) == want
    assert calls == [(16, 16), (16, 16)]


def test_subspace_distance_of_diagonals_is_their_largest_sector_entry_within_4_ulp(monkeypatch):
    rng = np.random.default_rng(9)
    n = 5
    a, b = random_phase_diagonal(rng, 1 << n), random_phase_diagonal(rng, 1 << n)
    masks = [hamming_projector_mask(n, eta) for eta in range(n + 1)]
    wants = [float(np.linalg.svd((a - b)[np.ix_(m, m)], compute_uv=False)[0]) for m in masks]
    calls = svd_spy(monkeypatch)
    for eta, (mask, want) in enumerate(zip(masks, wants)):
        got = subspace_distance(a, b, eta)
        assert got == want
        assert abs(np.abs((a - b).diagonal()[mask]).max() - want) <= 4 * np.spacing(want)
    # indices 9 and 6 both have Hamming weight 2, so the entry lies inside that sector
    a[9, 6] = 1e-300
    sector = (a - b)[np.ix_(masks[2], masks[2])]
    want = float(np.linalg.svd(sector, compute_uv=False)[0])
    calls.clear()
    assert subspace_distance(a, b, 2) == want
    assert calls == [sector.shape]


def test_subspace_distance_sizes_its_sector_before_any_svd(monkeypatch, fake_physical_memory):
    rng = np.random.default_rng(10)
    a, b = random_phase_diagonal(rng, 256), random_phase_diagonal(rng, 256)
    want = float(np.linalg.svd((a - b)[np.ix_(*2 * [hamming_projector_mask(8, 4)])], compute_uv=False)[0])
    calls = svd_spy(monkeypatch)
    # 64 KiB holds four copies of the 8 x 8 weight-1 sector, not of the 70 x 70 weight-4 one (306 KiB),
    # nor of the whole 256 x 256 difference (4 MiB)
    fake_physical_memory(2**-14)
    with pytest.raises(CapacityError, match=r"^a weight-4 sector distance \(4 70 x 70 copies\) needs"):
        subspace_distance(a, b, 4)
    assert calls == []
    subspace_distance(a, b, 1)
    assert calls == [(8, 8)]
    fake_physical_memory(1)
    assert subspace_distance(a, b, 4) == want


def test_hamming_mask():
    mask = hamming_projector_mask(3, 1)
    assert list(np.nonzero(mask)[0]) == [1, 2, 4]
    assert hamming_projector_mask(2, 0).tolist() == [True, False, False, False]
    with pytest.raises(DomainError):
        hamming_projector_mask(3, 4)


def test_hamming_mask_matches_bit_loop():
    for n in range(11):
        x = np.arange(1 << n)
        counts = np.zeros(1 << n, dtype=int)
        for q in range(n):
            counts += (x >> q) & 1
        for eta in range(n + 1):
            assert np.array_equal(hamming_projector_mask(n, eta), counts == eta)


def test_dense_capacity_counts_six_copies(fake_physical_memory):
    check_dense_capacity(10)  # 96 MiB, under the real memory of any test machine
    fake_physical_memory(8)
    check_dense_capacity(13)  # 6 x 1 GiB
    message = (r"^checking a 14-qubit step against exact evolution \(6 dense 2\^14 x 2\^14 matrices\)"
               r" needs 24.0 GiB, more than the 8.0 GiB of physical memory$")
    with pytest.raises(CapacityError, match=message):
        check_dense_capacity(14)
    fake_physical_memory(0.09)
    with pytest.raises(CapacityError, match="needs 0.1 GiB"):
        check_dense_capacity(10)


def test_distance_shape_mismatch():
    with pytest.raises(ValidationError):
        spectral_distance(np.eye(2), np.eye(4))


# -- text export -----------------------------------------------------------------------


def test_circuit_text_format():
    circ = Circuit(2, (Gate("H", 1), Gate("CNOT", 1, 2), Gate("RZ", 2, None, 0.5)))
    lines = circuit_text(circ).strip().split("\n")
    assert lines == ["H 1", "CNOT 1,2", "RZ 2,0.5"]
