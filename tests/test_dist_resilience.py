"""Distributed checkpoint/restart (DESIGN.md §10): surviving rank crashes.

Covers the FaultPlan multi-crash sites, the multi-failure world, request
deadlines under faults, the checkpoint snapshot/spill machinery, and
end-to-end crash recovery through ``run_distributed``.
"""

# NOTE: no `from __future__ import annotations` — it would stringify the
# @repro.program parameter annotations before the frontend reads them.

import os
import threading
import time

import numpy as np
import pytest

import repro
import repro.comm
from repro import instrumentation
from repro.config import Config
from repro.distributed import run_distributed
from repro.governor import Budget, ExecutionTimeout, MemoryBudgetExceeded
from repro.resilience.distributed import (CheckpointCorrupt, CheckpointStore,
                                          RankSnapshot, SupervisedRun,
                                          UnrecoveredError, WorldCheckpoint,
                                          classify_failure,
                                          run_spmd_supervised)
from repro.runtime import parallel
from repro.simmpi import (DeadlockError, FaultPlan, InjectedCrash, Request,
                          SimMPIError, run_spmd)
from repro.simmpi.comm import Comm, _World
from repro.simmpi.netmodel import NetModel


N_ = repro.symbol("N")
lNx = repro.symbol("lNx")
lNy = repro.symbol("lNy")
noff = repro.symbol("noff")
soff = repro.symbol("soff")
woff = repro.symbol("woff")
eoff = repro.symbol("eoff")


@repro.program
def j2d_small(TSTEPS: repro.int32, A: repro.float64[N_, N_],
              B: repro.float64[N_, N_]):
    lA = np.zeros((lNx + 2, lNy + 2))
    lB = np.zeros((lNx + 2, lNy + 2))
    lA[1:-1, 1:-1] = repro.comm.BlockScatter(A, (lNx, lNy))
    lB[1:-1, 1:-1] = repro.comm.BlockScatter(B, (lNx, lNy))
    for t in range(1, TSTEPS):
        repro.comm.HaloExchange(lA)
        lB[1 + noff:lNx + 1 - soff, 1 + woff:lNy + 1 - eoff] = 0.2 * (
            lA[1 + noff:lNx + 1 - soff, 1 + woff:lNy + 1 - eoff]
            + lA[1 + noff:lNx + 1 - soff, woff:lNy - eoff]
            + lA[1 + noff:lNx + 1 - soff, 2 + woff:lNy + 2 - eoff]
            + lA[2 + noff:lNx + 2 - soff, 1 + woff:lNy + 1 - eoff]
            + lA[noff:lNx - soff, 1 + woff:lNy + 1 - eoff])
        repro.comm.HaloExchange(lB)
        lA[1 + noff:lNx + 1 - soff, 1 + woff:lNy + 1 - eoff] = 0.2 * (
            lB[1 + noff:lNx + 1 - soff, 1 + woff:lNy + 1 - eoff]
            + lB[1 + noff:lNx + 1 - soff, woff:lNy - eoff]
            + lB[1 + noff:lNx + 1 - soff, 2 + woff:lNy + 2 - eoff]
            + lB[2 + noff:lNx + 2 - soff, 1 + woff:lNy + 1 - eoff]
            + lB[noff:lNx - soff, 1 + woff:lNy + 1 - eoff])
    A[:] = repro.comm.BlockGather(lA[1:-1, 1:-1], (N_, N_))
    B[:] = repro.comm.BlockGather(lB[1:-1, 1:-1], (N_, N_))


def offsets(rank, grid):
    nb = grid.neighbors(rank)
    return {"noff": 1 if nb["north"] < 0 else 0,
            "soff": 1 if nb["south"] < 0 else 0,
            "woff": 1 if nb["west"] < 0 else 0,
            "eoff": 1 if nb["east"] < 0 else 0}


def jacobi_inputs(n=8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, n)), rng.random((n, n))


def run_jacobi(A, B, tsteps=4, **kw):
    n = A.shape[0]
    return run_distributed(j2d_small, 4, TSTEPS=tsteps, A=A, B=B,
                           lNx=n // 2, lNy=n // 2, rank_args=offsets, **kw)


class TestFaultPlanCrashSites:
    def test_crashes_list_combines_with_legacy_pair(self):
        plan = FaultPlan(crash_rank=0, crash_after_ops=2,
                         crashes=[(1, 5), (2, 7)])
        assert plan.crash_sites == [(0, 2), (1, 5), (2, 7)]
        assert plan.pending_crash_sites == plan.crash_sites

    def test_sites_fire_once(self):
        plan = FaultPlan(crashes=[(1, 3)])
        assert not plan.should_crash(1, 2)
        assert plan.should_crash(1, 3)
        # the fault is transient: a respawned rank is not re-killed
        assert not plan.should_crash(1, 4)
        assert plan.injected["crashes"] == 1
        assert plan.pending_crash_sites == []

    def test_multiple_sites_fire_independently(self):
        plan = FaultPlan(crashes=[(0, 1), (1, 2)])
        assert plan.should_crash(0, 1)
        assert not plan.should_crash(0, 5)     # site 0 already fired
        assert plan.should_crash(1, 2)
        assert plan.injected["crashes"] == 2


class TestMultiRankFailures:
    def test_all_failing_ranks_named(self):
        def work(comm):
            comm.Barrier()
            if comm.rank == 0:
                raise ValueError("zero exploded")
            if comm.rank == 2:
                raise KeyError("two exploded")
            # survivors block until the barrier abort unwinds them
            comm.Barrier()

        with pytest.raises(SimMPIError) as excinfo:
            run_spmd(work, 3, timeout_s=5.0)
        message = str(excinfo.value)
        # tolerate the race: at least one primary named, never a survivor-
        # only report, and the chained cause is a real failure
        assert ("rank 0" in message) or ("rank 2" in message)
        assert ("zero exploded" in message) or ("two exploded" in message)
        assert excinfo.value.__cause__ is not None

    def test_both_ranks_named_when_failures_are_simultaneous(self):
        # synchronize outside the comm layer: a comm.Barrier here would
        # race one rank's failure against the other's barrier exit
        sync = threading.Barrier(2)

        def work(comm):
            sync.wait()         # everyone dies together
            raise ValueError(f"rank {comm.rank} bang")

        with pytest.raises(SimMPIError) as excinfo:
            run_spmd(work, 2, timeout_s=5.0)
        message = str(excinfo.value)
        assert "2 ranks failed" in message
        assert "rank 0 bang" in message and "rank 1 bang" in message

    def test_secondary_peer_aborts_are_filtered(self):
        def work(comm):
            if comm.rank == 1:
                raise ValueError("primary death")
            buf = np.empty(1)
            comm.Recv(buf, 1)   # unwinds via the peer-failure abort

        with pytest.raises(SimMPIError) as excinfo:
            run_spmd(work, 2, timeout_s=10.0)
        message = str(excinfo.value)
        assert "primary death" in message
        assert "aborted" not in message


class TestRequestsUnderFaults:
    def test_test_hits_deadline_on_dropped_message(self):
        """A Test() poll loop on a message that never arrives must raise
        DeadlockError at the deadline, not spin forever."""
        plan = FaultPlan(drop_prob=1.0, max_drops=10)

        def work(comm):
            if comm.rank == 1:
                buf = np.empty(1)
                req = comm.Irecv(buf, 0, tag=1)
                with pytest.raises(DeadlockError):
                    while not req.test():
                        time.sleep(0.01)
                return "deadline"
            try:
                comm.Send(np.ones(1), 1, tag=1)   # dropped beyond retries
            except SimMPIError:
                time.sleep(1.5)   # outlive rank 1's polling window
                raise
            return "sent"

        with pytest.raises(SimMPIError, match="lost"):
            run_spmd(work, 2, timeout_s=1.0, fault_plan=plan)

    def test_waitall_mixed_done_and_stuck(self):
        def work(comm):
            if comm.rank == 0:
                comm.Send(np.ones(1), 1, tag=1)   # only tag 1 ever arrives
                return True
            done = np.empty(1)
            stuck = np.empty(1)
            reqs = [comm.Irecv(done, 0, tag=1), comm.Irecv(stuck, 0, tag=2)]
            while not reqs[0].test():
                time.sleep(0.005)
            with pytest.raises(DeadlockError):
                Request.Waitall(reqs)
            assert done[0] == 1.0
            return True

        results, _, _ = run_spmd(work, 2, timeout_s=0.5)
        assert results == [True, True]

    def test_test_aborts_on_peer_failure(self):
        def work(comm):
            if comm.rank == 0:
                raise ValueError("sender died")
            buf = np.empty(1)
            req = comm.Irecv(buf, 0)
            with pytest.raises(SimMPIError):
                deadline = time.monotonic() + 10.0
                while not req.test():
                    time.sleep(0.01)
                    assert time.monotonic() < deadline
            return True

        with pytest.raises(SimMPIError, match="sender died"):
            run_spmd(work, 2, timeout_s=30.0)


class TestCheckpointMachinery:
    def test_rank_snapshot_restores_in_place(self):
        original = np.arange(6, dtype=np.float64)
        snap = RankSnapshot.capture(0, 3, {"A": original},
                                    {"N": 6, "t": 2})
        original[:] = -1.0
        containers = {"A": original}
        snap.restore_into(containers)
        assert containers["A"] is original          # in-place convention
        assert np.array_equal(original, np.arange(6, dtype=np.float64))
        # snapshots are reusable: restoring did not alias
        original[:] = -2.0
        snap.restore_into(containers)
        assert np.array_equal(original, np.arange(6, dtype=np.float64))

    def test_world_checkpoint_disk_roundtrip(self, tmp_path):
        snap = RankSnapshot.capture(0, 1, {"A": np.ones(3)}, {"t": 4})
        ckpt = WorldCheckpoint(boundary=1, epoch=2, ranks=[snap],
                               comm={"clocks": [0.5], "op_counts": [3],
                                     "seq": {}, "delivered": {},
                                     "mailboxes": {}, "comm_stats": {}})
        path = ckpt.save(str(tmp_path))
        assert os.path.basename(path) == "ckpt-epoch0002-state0001.pkl"
        assert not [p for p in os.listdir(tmp_path) if ".tmp" in p]
        loaded = WorldCheckpoint.load(path)
        assert loaded.boundary == 1 and loaded.epoch == 2
        assert np.array_equal(loaded.ranks[0].containers["A"], np.ones(3))
        assert loaded.ranks[0].symbols["t"] == 4

    def test_store_spills_when_directory_configured(self, tmp_path):
        store = CheckpointStore(spill_dir=str(tmp_path))
        snap = RankSnapshot.capture(0, 0, {}, {})
        store.commit(WorldCheckpoint(boundary=0, epoch=0, ranks=[snap],
                                     comm={"clocks": [], "op_counts": [],
                                           "seq": {}, "delivered": {},
                                           "mailboxes": {},
                                           "comm_stats": {}}))
        assert store.commits == 1
        assert len(store.paths) == 1 and os.path.exists(store.paths[0])

    def test_store_reads_ckpt_dir_config(self, tmp_path):
        with Config.override(resilience__ckpt_dir=str(tmp_path)):
            assert CheckpointStore().spill_dir == str(tmp_path)
        assert CheckpointStore().spill_dir == (
            os.environ.get("REPRO_CKPT_DIR") or "")

    def test_stale_epoch_messages_drained_at_recv(self):
        world = _World(2, NetModel.from_config(), timeout_s=5.0, epoch=1)
        box = world.mailbox(0, 1, 0)
        box.put((0, 0, np.array([-1.0]), 0.0, 8))   # stale: epoch 0
        box.put((1, 0, np.array([42.0]), 0.0, 8))   # current epoch
        buf = np.empty(1)
        Comm(world, 1).Recv(buf, 0)
        assert buf[0] == 42.0
        assert world.comm_stats["stale_discarded"] == 1

    def test_restore_comm_retags_in_flight_messages(self):
        old = _World(2, NetModel.from_config(), timeout_s=5.0, epoch=0)
        Comm(old, 0).Send(np.array([7.0]), 1, tag=3)
        snap = old.snapshot_comm()
        new = _World(2, NetModel.from_config(), timeout_s=5.0, epoch=1)
        new.restore_comm(snap)
        buf = np.empty(1)
        Comm(new, 1).Recv(buf, 0, tag=3)            # retagged, deliverable
        assert buf[0] == 7.0
        assert new.comm_stats["stale_discarded"] == 0


class TestFailureClassification:
    def test_simmpi_faults_are_recoverable(self):
        assert classify_failure(InjectedCrash("boom"))
        assert classify_failure(SimMPIError("message lost"))

    def test_wrapped_faults_found_on_cause_chain(self):
        try:
            try:
                raise InjectedCrash("inner crash")
            except InjectedCrash as inner:
                raise RuntimeError("tasklet wrapper") from inner
        except RuntimeError as outer:
            assert classify_failure(outer)

    def test_user_errors_and_deadlocks_are_fatal(self):
        assert not classify_failure(ValueError("user bug"))
        assert not classify_failure(DeadlockError("stuck"))


class TestSupervisedExecution:
    def test_fault_free_run_is_single_epoch(self):
        def work(comm, snapshot):
            assert snapshot is None
            comm.Barrier()
            return comm.rank * 10

        run = run_spmd_supervised(work, 3, timeout_s=5.0)
        assert isinstance(run, SupervisedRun)
        assert run.results == [0, 10, 20]
        assert run.epochs == 1 and run.recovery_events == []
        assert run.failed_ranks == [] and run.checkpoints == 0

    def test_crash_restarts_from_scratch_with_reset(self):
        plan = FaultPlan(crashes=[(1, 2)])
        scoreboard = []

        def work(comm, snapshot):
            for _ in range(4):
                comm.Barrier()
            return True

        run = run_spmd_supervised(work, 2, fault_plan=plan, timeout_s=5.0,
                                  ckpt_interval=0, ckpt_comm_ops=0,
                                  reset=lambda: scoreboard.append("reset"))
        assert run.results == [True, True]
        assert run.epochs == 2 and run.failed_ranks == [1]
        assert scoreboard == ["reset"]
        (event,) = run.recovery_events
        assert event.kind == "restart-scratch" and event.boundary is None
        assert event.failed_ranks == [1]

    def test_fatal_failure_is_not_retried(self):
        calls = []

        def work(comm, snapshot):
            calls.append(comm.rank)
            if comm.rank == 0:
                raise ValueError("user bug, do not retry")
            comm.Barrier()

        with pytest.raises(UnrecoveredError, match="user bug") as excinfo:
            run_spmd_supervised(work, 2, timeout_s=5.0)
        assert sorted(calls) == [0, 1]              # exactly one epoch
        (event,) = excinfo.value.recovery_events
        assert event.kind == "fatal"

    def test_restart_budget_exhaustion(self):
        # a fresh crash site for every epoch: never converges
        plan = FaultPlan(crashes=[(0, 2), (0, 2), (0, 2)])

        def work(comm, snapshot):
            for _ in range(4):
                comm.Barrier()

        with pytest.raises(UnrecoveredError, match="injected crash") \
                as excinfo:
            run_spmd_supervised(work, 2, fault_plan=plan, timeout_s=5.0,
                                max_restarts=2)
        kinds = [e.kind for e in excinfo.value.recovery_events]
        assert kinds == ["restart-scratch", "restart-scratch",
                         "budget-exhausted"]


class TestEndToEndRecovery:
    def test_single_crash_matches_fault_free(self):
        A0, B0 = jacobi_inputs()
        Af, Bf = A0.copy(), B0.copy()
        fault_free = run_jacobi(Af, Bf)
        assert fault_free.recovery_events == []
        assert fault_free.per_rank_values and fault_free.failed_ranks == []

        Ad, Bd = A0.copy(), B0.copy()
        plan = FaultPlan(crash_rank=2, crash_after_ops=9)
        result = run_jacobi(Ad, Bd, fault_plan=plan, ckpt_interval=2,
                            timeout_s=20.0)
        assert plan.injected["crashes"] == 1
        assert result.failed_ranks == [2]
        assert [e.kind for e in result.recovery_events] == ["restart"]
        assert np.allclose(Ad, Af) and np.allclose(Bd, Bf)

    def test_multi_crash_plan_recovers(self):
        A0, B0 = jacobi_inputs(seed=3)
        Af, Bf = A0.copy(), B0.copy()
        run_jacobi(Af, Bf)

        Ad, Bd = A0.copy(), B0.copy()
        plan = FaultPlan(crashes=[(1, 6), (3, 14)])
        result = run_jacobi(Ad, Bd, fault_plan=plan, ckpt_interval=2,
                            max_restarts=4, timeout_s=20.0)
        assert plan.injected["crashes"] == 2
        assert result.failed_ranks == [1, 3]
        assert len(result.recovery_events) == 2
        assert np.allclose(Ad, Af) and np.allclose(Bd, Bf)

    def test_comm_op_triggered_checkpoints(self):
        A0, B0 = jacobi_inputs(seed=4)
        Af, Bf = A0.copy(), B0.copy()
        run_jacobi(Af, Bf)

        Ad, Bd = A0.copy(), B0.copy()
        plan = FaultPlan(crash_rank=0, crash_after_ops=12)
        result = run_jacobi(Ad, Bd, fault_plan=plan, ckpt_comm_ops=4,
                            timeout_s=20.0)
        assert result.failed_ranks == [0]
        assert np.allclose(Ad, Af) and np.allclose(Bd, Bf)

    def test_checkpoints_spill_to_disk(self, tmp_path):
        A0, B0 = jacobi_inputs(seed=5)
        with Config.override(resilience__ckpt_dir=str(tmp_path)):
            run_jacobi(A0.copy(), B0.copy(), ckpt_interval=3,
                       timeout_s=20.0)
        spilled = sorted(os.listdir(tmp_path))
        assert spilled and all(p.startswith("ckpt-") and p.endswith(".pkl")
                               for p in spilled)
        ckpt = WorldCheckpoint.load(os.path.join(tmp_path, spilled[-1]))
        assert len(ckpt.ranks) == 4

    def test_per_rank_values_returned(self):
        A0, B0 = jacobi_inputs(seed=6)
        result = run_jacobi(A0, B0)
        assert len(result.per_rank_values) == 4
        assert len(result.op_counts) == 4 and min(result.op_counts) > 0

    def test_recovery_region_instrumented(self):
        A0, B0 = jacobi_inputs(seed=7)
        plan = FaultPlan(crash_rank=1, crash_after_ops=7)
        with instrumentation.profile("jacobi-chaos") as prof:
            run_jacobi(A0, B0, fault_plan=plan, ckpt_interval=2,
                       timeout_s=20.0)
        recovery = prof.report().by_category("recovery")
        assert recovery, "recovery events must be instrumented"
        assert any("restart" in r.name for r in recovery)

    def test_interpreter_path_also_checkpoints(self):
        """The boundary hook fires in both backends; the supervisor works
        through raw rank functions with no SDFG at all (no checkpoints,
        scratch restart) — and the compiled path above — so here we pin
        the hook contract itself."""
        from repro.resilience import hooks

        fired = []
        with hooks.boundary_hook(lambda i, c, s: fired.append(i)):
            hooks.state_boundary(3, {}, {})
            with hooks.suppressed():
                hooks.state_boundary(9, {}, {})     # nested SDFG: masked
            hooks.state_boundary(4, {}, {})
        hooks.state_boundary(5, {}, {})             # no hook installed
        assert fired == [3, 4]


class TestChaosSweep:
    def test_chaos_sweep_single_case(self, tmp_path):
        from repro.resilience.chaos import SCHEMA, chaos_sweep

        out = str(tmp_path / "CHAOS.json")
        report = chaos_sweep(seeds=2, out=out, case_names=["pgemv"],
                             timeout_s=20.0, verbose=False)
        assert report["schema"] == SCHEMA
        assert os.path.exists(out)
        summary = report["summary"]
        assert summary["trials"] == 2
        assert summary["recovered"] == 2
        assert summary["unrecovered"] == 0 and summary["diverged"] == 0
        (case,) = report["cases"]
        assert all(t["crashes_fired"] >= 1 for t in case["trials"])


def _tiny_world_ckpt(epoch, value):
    snap = RankSnapshot.capture(0, 1, {"A": np.full(3, float(value))},
                                {"t": epoch})
    return WorldCheckpoint(boundary=1, epoch=epoch, ranks=[snap],
                           comm={"clocks": [0.0], "op_counts": [0],
                                 "seq": {}, "delivered": {},
                                 "mailboxes": {}, "comm_stats": {}})


class TestCheckpointIntegrity:
    def test_corrupted_payload_raises_structured_error(self, tmp_path):
        path = _tiny_world_ckpt(1, 1.0).save(str(tmp_path))
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF                            # flip one payload byte
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointCorrupt, match="checksum"):
            WorldCheckpoint.load(path)

    def test_truncated_and_foreign_files_rejected(self, tmp_path):
        path = _tiny_world_ckpt(1, 1.0).save(str(tmp_path))
        blob = open(path, "rb").read()
        short = os.path.join(tmp_path, "short.pkl")
        open(short, "wb").write(blob[:16])          # inside the header
        with pytest.raises(CheckpointCorrupt):
            WorldCheckpoint.load(short)
        foreign = os.path.join(tmp_path, "foreign.pkl")
        open(foreign, "wb").write(b"not a checkpoint at all" * 4)
        with pytest.raises(CheckpointCorrupt):
            WorldCheckpoint.load(foreign)

    def test_store_evicts_corrupt_latest_and_falls_back(self, tmp_path):
        store = CheckpointStore(spill_dir=str(tmp_path))
        store.commit(_tiny_world_ckpt(1, 1.0))
        store.commit(_tiny_world_ckpt(2, 2.0))
        assert len(store.paths) == 2
        newest = store.paths[-1]
        blob = bytearray(open(newest, "rb").read())
        blob[-1] ^= 0xFF
        open(newest, "wb").write(bytes(blob))
        loaded = store.load_latest_from_disk()
        # detect-and-evict: the corrupt epoch-2 file is gone, epoch 1 serves
        assert loaded is not None and loaded.epoch == 1
        assert loaded.ranks[0].containers["A"][0] == 1.0
        assert newest not in store.paths
        assert not os.path.exists(newest)

    def test_store_scans_directory_when_paths_unknown(self, tmp_path):
        _tiny_world_ckpt(1, 1.0).save(str(tmp_path))
        _tiny_world_ckpt(2, 2.0).save(str(tmp_path))
        fresh = CheckpointStore(spill_dir=str(tmp_path))  # e.g. new process
        loaded = fresh.load_latest_from_disk()
        assert loaded is not None and loaded.epoch == 2

    def test_store_returns_none_when_everything_corrupt(self, tmp_path):
        store = CheckpointStore(spill_dir=str(tmp_path))
        store.commit(_tiny_world_ckpt(1, 1.0))
        open(store.paths[0], "wb").write(b"garbage")
        assert store.load_latest_from_disk() is None
        assert store.paths == []


class TestGovernedDistributed:
    def test_deadline_raises_structured_timeout(self):
        A0, B0 = jacobi_inputs(seed=8)
        with pytest.raises(ExecutionTimeout) as excinfo:
            run_jacobi(A0, B0, tsteps=64, timeout_s=20.0,
                       budget=Budget(deadline_s=1e-4))
        err = excinfo.value
        assert err.elapsed_s >= 1e-4
        # the supervisor attaches its event log to the governor error
        assert hasattr(err, "recovery_events")

    def test_generous_budget_matches_ungoverned_run(self):
        A0, B0 = jacobi_inputs(seed=9)
        Af, Bf = A0.copy(), B0.copy()
        run_jacobi(Af, Bf)
        Ag, Bg = A0.copy(), B0.copy()
        result = run_jacobi(Ag, Bg, timeout_s=20.0,
                            budget=Budget(deadline_s=60.0,
                                          max_bytes=1 << 30))
        assert result.recovery_events == []
        assert np.allclose(Ag, Af) and np.allclose(Bg, Bf)

    def test_crash_recovers_from_checkpoint_under_a_deadline(self):
        # both consumers of the state-boundary call in one run: every rank
        # checks its armed deadline and fires the checkpoint hook
        A0, B0 = jacobi_inputs(seed=11)
        Af, Bf = A0.copy(), B0.copy()
        run_jacobi(Af, Bf)
        Ad, Bd = A0.copy(), B0.copy()
        plan = FaultPlan(crash_rank=2, crash_after_ops=9)
        result = run_jacobi(Ad, Bd, fault_plan=plan, ckpt_interval=2,
                            timeout_s=20.0, budget=Budget(deadline_s=60.0))
        assert plan.injected["crashes"] == 1
        assert [e.kind for e in result.recovery_events] == ["restart"]
        assert result.recovery_events[0].boundary is not None
        assert np.allclose(Ad, Af) and np.allclose(Bd, Bf)

    def test_per_rank_admission_rejects_oversized_launch(self):
        A0, B0 = jacobi_inputs(seed=10)
        with pytest.raises(MemoryBudgetExceeded):
            run_jacobi(A0, B0, timeout_s=20.0, budget=Budget(max_bytes=64))


class TestChaosMulticore:
    """The chaos matrix crossed with the multicore backend (4 workers)."""

    @pytest.fixture(autouse=True)
    def _four_threads(self, monkeypatch):
        monkeypatch.setenv("REPRO_CPU_THREADS", "4")
        parallel.reset_stats()
        yield
        parallel.shutdown_pool()
        parallel.reset_stats()

    def test_chaos_sweep_under_four_threads(self, tmp_path):
        from repro.resilience.chaos import SCHEMA, chaos_sweep

        out = str(tmp_path / "CHAOS-MT.json")
        with Config.override(device__cpu_threads=0):
            report = chaos_sweep(seeds=2, out=out, case_names=["pgemv"],
                                 timeout_s=20.0, verbose=False)
        assert report["schema"] == SCHEMA
        summary = report["summary"]
        assert summary["recovered"] == 2
        assert summary["unrecovered"] == 0 and summary["diverged"] == 0

    def test_crash_inside_parallel_region_recovers(self):
        fired = threading.Event()

        def work(comm, snapshot):
            comm.Barrier()
            total = [0.0]
            lock = threading.Lock()

            def body(lo, hi, acc):
                if comm.rank == 1 and not fired.is_set():
                    fired.set()
                    raise InjectedCrash("crash inside a parallel chunk")
                with lock:
                    total[0] += hi - lo + 1     # inclusive-end chunk span

            with Config.override(device__cpu_threads=0,
                                 parallel__min_work=0):
                parallel.parallel_map(body, 0, 99, 1, 10**9, {})
            comm.Barrier()
            return total[0]

        run = run_spmd_supervised(work, 2, timeout_s=20.0)
        assert fired.is_set()
        assert run.epochs == 2 and run.failed_ranks == [1]
        assert [e.kind for e in run.recovery_events] == ["restart-scratch"]
        assert run.results == [100.0, 100.0]
        assert parallel.stats().parallel_regions >= 1

    def test_checkpoint_crash_recovery_under_four_threads(self, tmp_path):
        A0, B0 = jacobi_inputs(seed=11)
        Af, Bf = A0.copy(), B0.copy()
        run_jacobi(Af, Bf)
        Ad, Bd = A0.copy(), B0.copy()
        plan = FaultPlan(crash_rank=2, crash_after_ops=9)
        with Config.override(device__cpu_threads=0,
                             resilience__ckpt_dir=str(tmp_path)):
            result = run_jacobi(Ad, Bd, fault_plan=plan, ckpt_interval=2,
                                timeout_s=20.0)
        assert result.failed_ranks == [2]
        assert np.allclose(Ad, Af) and np.allclose(Bd, Bf)
