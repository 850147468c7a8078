"""Tests for the chunked checkpoint container (the HDF5 stand-in)."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.navier_stokes import NSProblem, NSSolver
from repro.apps.reaction_diffusion import RDProblem, RDSolver
from repro.io.checkpoint import (
    CheckpointData,
    CheckpointError,
    SolverState,
    load_state,
    read_checkpoint,
    read_state,
    save_state,
    write_checkpoint,
)


class _Problem:
    """The least a checkpointed problem carries: an app name and a key."""

    APP = "test-app"

    def discretization(self) -> dict:
        return {"mesh_shape": [4, 4, 4], "order": 2}


class _Solver:
    """The least ``save_state`` needs: a problem and a restart state."""

    def __init__(self, state: SolverState, problem=_Problem()):
        self.problem = problem
        self._state = state

    def state(self) -> SolverState:
        return self._state


class TestRoundTrip:
    def test_simple_roundtrip(self, tmp_path):
        data = CheckpointData(
            fields={"u": np.arange(100.0), "v": np.zeros(3)},
            metadata={"t": 1.5, "note": "hello"},
        )
        path = tmp_path / "state.rprc"
        nbytes = write_checkpoint(path, data)
        assert nbytes == path.stat().st_size
        loaded = read_checkpoint(path)
        assert loaded == data

    def test_empty_field(self, tmp_path):
        data = CheckpointData(fields={"empty": np.empty(0)})
        path = tmp_path / "e.rprc"
        write_checkpoint(path, data)
        loaded = read_checkpoint(path)
        assert loaded.fields["empty"].size == 0

    def test_multi_chunk_roundtrip(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal(10_000)
        data = CheckpointData(fields={"big": arr})
        path = tmp_path / "big.rprc"
        write_checkpoint(path, data, chunk_elements=777)
        assert np.array_equal(read_checkpoint(path).fields["big"], arr)

    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=4),
        chunk=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, sizes, chunk, seed):
        import tempfile
        from pathlib import Path

        rng = np.random.default_rng(seed)
        data = CheckpointData(
            fields={f"f{i}": rng.standard_normal(n) for i, n in enumerate(sizes)},
            metadata={"sizes": sizes},
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.rprc"
            write_checkpoint(path, data, chunk_elements=chunk)
            assert read_checkpoint(path) == data


class _DiesOnSecondChunk(np.ndarray):
    """A field whose second ``tobytes`` raises: a writer killed mid-file."""

    calls = 0

    def tobytes(self, *args, **kwargs):
        type(self).calls += 1
        if type(self).calls == 2:
            raise OSError("writer died mid-chunk")
        return super().tobytes(*args, **kwargs)


class TestAtomicWrite:
    def test_a_writer_that_dies_mid_chunk_leaves_the_previous_generation(self, tmp_path):
        path = tmp_path / "state.rprc"
        old = CheckpointData(fields={"u": np.arange(10.0)}, metadata={"step": 1})
        assert write_checkpoint(path, old) == path.stat().st_size
        new = CheckpointData(fields={"u": np.arange(10.0) + 1.0}, metadata={"step": 2})
        new.fields["u"] = new.fields["u"].view(_DiesOnSecondChunk)
        _DiesOnSecondChunk.calls = 0
        with pytest.raises(OSError, match="mid-chunk"):
            write_checkpoint(path, new, chunk_elements=4)
        assert read_checkpoint(path) == old
        assert [entry.name for entry in tmp_path.iterdir()] == ["state.rprc"]


class TestValidation:
    def test_rejects_2d_fields(self):
        with pytest.raises(CheckpointError):
            CheckpointData(fields={"m": np.zeros((2, 2))})

    def test_rejects_bad_chunk_size(self, tmp_path):
        with pytest.raises(CheckpointError):
            write_checkpoint(tmp_path / "x", CheckpointData(), chunk_elements=0)

    def test_rejects_unserializable_metadata(self, tmp_path):
        data = CheckpointData(metadata={"bad": object()})
        with pytest.raises(CheckpointError):
            write_checkpoint(tmp_path / "x", data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"RPRC" + struct.pack("<II", 99, 2) + b"{}")
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        data = CheckpointData(fields={"u": np.arange(1000.0)})
        path = tmp_path / "t.rprc"
        write_checkpoint(path, data)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "header",
        [b"[]", b'{"fields": {"u": "3"}}', b'{"fields": [1]}'],
        ids=["header-array", "field-size-word", "field-table-array"],
    )
    def test_malformed_header_is_a_checkpoint_error(self, tmp_path, header):
        path = tmp_path / "h.rprc"
        path.write_bytes(b"RPRC" + struct.pack("<II", 2, len(header)) + header)
        with pytest.raises(CheckpointError, match="corrupt header"):
            read_checkpoint(path)

    def test_corruption_detected_by_crc(self, tmp_path):
        data = CheckpointData(fields={"u": np.arange(1000.0)})
        path = tmp_path / "c.rprc"
        write_checkpoint(path, data)
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF  # flip a payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="CRC"):
            read_checkpoint(path)


class TestSolverRestart:
    def test_rd_checkpoint_restart_is_exact(self, tmp_path):
        """Running 6 steps equals running 3, checkpointing, restarting,
        and running 3 more."""
        problem = RDProblem(mesh_shape=(4, 4, 4), num_steps=6)
        straight = RDSolver(problem, assembly_mode="combine")
        for _ in range(6):
            straight.step()

        first = RDSolver(problem, assembly_mode="combine")
        for _ in range(3):
            first.step()
        path = tmp_path / "rd.rprc"
        save_state(path, first, extra_metadata={"run": "test"})

        second = RDSolver(problem, assembly_mode="combine")
        restored_t = load_state(path, second)
        assert restored_t == pytest.approx(first.t)
        for _ in range(3):
            second.step()

        assert np.allclose(second.solution, straight.solution, atol=1e-12)
        assert second.nodal_error() < 1e-9

    def test_mesh_mismatch_rejected(self, tmp_path):
        a = RDSolver(RDProblem(mesh_shape=(4, 4, 4)), assembly_mode="combine")
        path = tmp_path / "rd.rprc"
        save_state(path, a)
        b = RDSolver(RDProblem(mesh_shape=(5, 5, 5)), assembly_mode="combine")
        with pytest.raises(CheckpointError, match="mesh_shape"):
            load_state(path, b)

    def test_discretization_mismatch_rejected(self, tmp_path):
        a = RDSolver(RDProblem(mesh_shape=(4, 4, 4), order=2), assembly_mode="combine")
        path = tmp_path / "rd.rprc"
        save_state(path, a)
        b = RDSolver(RDProblem(mesh_shape=(4, 4, 4), order=1), assembly_mode="combine")
        with pytest.raises(CheckpointError, match="discretization"):
            load_state(path, b)
        c = RDSolver(RDProblem(mesh_shape=(4, 4, 4), dt=0.1), assembly_mode="combine")
        with pytest.raises(CheckpointError, match="'dt'"):
            load_state(path, c)

    def test_wrong_app_rejected(self, tmp_path):
        path = tmp_path / "x.rprc"
        write_checkpoint(path, CheckpointData(metadata={"app": "other"}))
        solver = RDSolver(RDProblem(mesh_shape=(3, 3, 3)), assembly_mode="combine")
        with pytest.raises(CheckpointError, match="app mismatch"):
            load_state(path, solver)


# ---------------------------------------------------------------------------
# v2 restart contract + byte-level robustness (resilience satellites)
# ---------------------------------------------------------------------------

_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**9), max_value=10**9)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=16),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=12,
)


@pytest.mark.resilience
class TestRoundTripProperties:
    """Property-based: arbitrary contents survive, corruption never does."""

    @given(
        fields=st.dictionaries(
            st.text(min_size=1, max_size=10),
            st.lists(
                st.floats(allow_nan=False, width=64), min_size=0, max_size=40
            ),
            min_size=0,
            max_size=4,
        ),
        metadata=st.dictionaries(st.text(max_size=8), _json_values, max_size=4),
        chunk=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_contents_roundtrip(self, fields, metadata, chunk):
        import tempfile
        from pathlib import Path

        data = CheckpointData(
            fields={k: np.array(v, dtype=np.float64) for k, v in fields.items()},
            metadata=metadata,
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.rprc"
            write_checkpoint(path, data, chunk_elements=chunk)
            loaded = read_checkpoint(path)
            assert loaded == data
            # Bit-exact, not approximately equal: resume depends on it.
            for name in data.fields:
                assert loaded.fields[name].tobytes() == data.fields[name].tobytes()

    def test_every_single_byte_corruption_rejected(self, tmp_path):
        """Flip each byte of the chunk region in turn: all must be caught.

        (Header bytes are excluded: the JSON header is not checksummed,
        which is the same integrity contract HDF5 offers by default.)
        """
        data = CheckpointData(
            fields={"u": np.arange(17.0), "v": np.linspace(0.0, 1.0, 9)},
            metadata={"t": 1.25},
        )
        path = tmp_path / "c.rprc"
        write_checkpoint(path, data, chunk_elements=5)
        raw = path.read_bytes()
        import json as _json
        import struct as _struct

        hlen = _struct.unpack_from("<II", raw, 4)[1]
        body_start = 12 + hlen
        assert body_start < len(raw)
        for pos in range(body_start, len(raw)):
            corrupted = bytearray(raw)
            corrupted[pos] ^= 0xFF
            path.write_bytes(bytes(corrupted))
            with pytest.raises(CheckpointError):
                read_checkpoint(path)
        # Sanity: the pristine bytes still read back fine.
        path.write_bytes(raw)
        assert read_checkpoint(path) == data

    def test_every_truncation_rejected(self, tmp_path):
        data = CheckpointData(fields={"u": np.arange(23.0)}, metadata={"k": 1})
        path = tmp_path / "t.rprc"
        write_checkpoint(path, data, chunk_elements=7)
        raw = path.read_bytes()
        for n in range(len(raw)):
            path.write_bytes(raw[:n])
            with pytest.raises(CheckpointError):
                read_checkpoint(path)

    @given(
        num_states=st.integers(min_value=1, max_value=4),
        size=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=99),
        step=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_history_state_roundtrip(self, num_states, size, seed, step):
        import tempfile
        from pathlib import Path

        rng = np.random.default_rng(seed)
        states = [rng.standard_normal(size) for _ in range(num_states)]
        t = float(rng.uniform(0.1, 10.0))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "h.rprc"
            save_state(path, _Solver(SolverState(states, t, step, {"iters": [3, 4, 5]})))
            got, meta = read_state(path, _Problem())
            assert got.t == t and got.step == step
            assert len(got.fields) == num_states == meta["num_states"]
            for a, b in zip(got.fields, states):
                assert a.tobytes() == b.tobytes()
            assert got.counters == {"iters": [3, 4, 5]}


_VALID = {
    "app": "test-app", "t": 1.0, "step": 2, "num_states": 0,
    "discretization": {"mesh_shape": [4, 4, 4], "order": 2}, "solver_state": {},
}
_MALFORMED = {
    "missing-t": lambda meta: {k: v for k, v in meta.items() if k != "t"},
    "t-not-a-number": lambda meta: {**meta, "t": "soon"},
    "num-states-not-a-number": lambda meta: {**meta, "num_states": "two"},
    "step-not-a-number": lambda meta: {**meta, "step": [1]},
    "discretization-not-an-object": lambda meta: {**meta, "discretization": [4, 4, 4]},
    "solver-state-not-an-object": lambda meta: {**meta, "solver_state": "done"},
    "metadata-not-an-object": lambda meta: [meta],
}


@pytest.mark.resilience
class TestMalformedMetadata:
    """Whatever the header says, a bad restart checkpoint is a CheckpointError."""

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_malformed_metadata_is_a_checkpoint_error(self, tmp_path, case):
        path = tmp_path / "m.rprc"
        write_checkpoint(path, CheckpointData(metadata=_MALFORMED[case](_VALID)))
        with pytest.raises(CheckpointError):
            read_state(path, _Problem())

    def test_valid_metadata_loads(self, tmp_path):
        path = tmp_path / "m.rprc"
        write_checkpoint(path, CheckpointData(metadata=_VALID))
        state, _ = read_state(path, _Problem())
        assert (state.fields, state.t, state.step) == ([], 1.0, 2)

    @pytest.mark.parametrize("change", [{"app": "other"}, {"num_states": 1}],
                             ids=["wrong-app", "missing-field"])
    def test_inconsistent_metadata_is_a_checkpoint_error(self, tmp_path, change):
        path = tmp_path / "m.rprc"
        write_checkpoint(path, CheckpointData(metadata={**_VALID, **change}))
        with pytest.raises(CheckpointError, match="app mismatch|missing history field"):
            read_state(path, _Problem())

    def test_field_count_mismatch_is_a_checkpoint_error(self, tmp_path):
        problem = RDProblem(mesh_shape=(3, 3, 3))
        path = tmp_path / "short.rprc"
        save_state(path, _Solver(SolverState([np.zeros(3)], 1.0, 0, {}), problem))
        solver = RDSolver(problem, assembly_mode="combine")
        with pytest.raises(CheckpointError, match="1 state fields"):
            load_state(path, solver)


@pytest.mark.resilience
class TestRngAndNSRestart:
    def test_rng_state_roundtrip_resumes_draw_sequence(self, tmp_path):
        rng = np.random.default_rng(42)
        rng.standard_normal(10)  # advance past the seed state
        saved = rng.bit_generator.state
        reference = rng.standard_normal(20)

        path = tmp_path / "r.rprc"
        save_state(path, _Solver(SolverState([np.zeros(1)], 0.0, 0, {})), rng_state=saved)
        _, meta = read_state(path, _Problem())
        fresh = np.random.default_rng(0)
        fresh.bit_generator.state = meta["rng_state"]
        assert np.array_equal(fresh.standard_normal(20), reference)

    def test_ns_checkpoint_restart_is_bit_exact(self, tmp_path):
        """6 NS steps straight == 3 steps + checkpoint + restore + 3 steps."""
        problem = NSProblem(mesh_shape=(3, 3, 3), num_steps=6)
        straight = NSSolver(problem)
        for _ in range(6):
            straight.step()

        first = NSSolver(problem)
        for _ in range(3):
            first.step()
        path = tmp_path / "ns.rprc"
        save_state(path, first)

        second = NSSolver(problem)
        restored_t = load_state(path, second)
        assert restored_t == first.t
        assert second.steps_taken == 3
        for _ in range(3):
            second.step()

        assert np.array_equal(second.velocity, straight.velocity)
        assert np.array_equal(second.pressure, straight.pressure)
        assert second.t == straight.t
        assert second.momentum_iterations == straight.momentum_iterations
        assert second.pressure_iterations == straight.pressure_iterations

    def test_ns_discretization_mismatch_rejected(self, tmp_path):
        a = NSSolver(NSProblem(mesh_shape=(3, 3, 3)))
        path = tmp_path / "ns.rprc"
        save_state(path, a)
        b = NSSolver(NSProblem(mesh_shape=(4, 4, 4)))
        with pytest.raises(CheckpointError, match="mesh_shape"):
            load_state(path, b)
        default_dt = NSProblem().dt
        c = NSSolver(NSProblem(mesh_shape=(3, 3, 3), dt=default_dt / 2))
        with pytest.raises(CheckpointError, match="'dt'"):
            load_state(path, c)
