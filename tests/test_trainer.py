import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

import stepbcd.trainer as trainer_mod
from stepbcd import solvers
from stepbcd.core import Hyperparams, NetworkShape, forward_blocks, init_gaussian, make_rng
from stepbcd.dataio import Dataset
from stepbcd.prox import EPS_TINY, step
from stepbcd.trainer import BcdReport, bcd_iteration, objective_f, train

from datagen import make_cluster_dataset
from oracles import check_descent


def objective_oracle(state, data, hp):
    """Straight-line re-implementation of the penalty objective."""
    h = len(state.W)
    n = data.X.shape[1]
    total = 0.0
    for s in range(n):
        col = state.U[h - 1][:, s]
        total += float(((data.Y[:, s] - (col == col.max())) ** 2).sum()) / (2.0 * n)
    for w in state.W:
        ncols = sum(1 for j in range(w.shape[1]) if np.any(w[:, j] != 0.0))
        total += hp.lam * ncols + 0.5 * hp.gamma * float((w ** 2).sum())
    vs = [data.X] + list(state.V)
    for i in range(h):
        total += 0.5 * hp.tau * float(((state.U[i] - state.W[i] @ vs[i]) ** 2).sum())
    for i in range(h - 1):
        total += 0.5 * hp.pi * float(((state.V[i] - step(state.U[i])) ** 2).sum())
    return total


def theory_hp(beta=0.003, tau=1.0, pi=0.5, lam=0.01, L=30, K=25):
    return Hyperparams(tau=tau, pi=pi, gamma=1.01 / beta, lam=lam, beta=beta, L=L, K=K)


class TestObjective:
    def test_all_zero_state(self):
        shape = NetworkShape((4, 8, 3))
        n = 10
        x = np.zeros((4, n))
        y = np.zeros((3, n))
        y[0] = 1.0
        data = Dataset(x, y)
        state = init_gaussian(shape, 0.01, make_rng(0), x)
        for blocks in (state.W, state.U, state.V):
            for m in blocks:
                m[:] = 0.0
        f, terms = objective_f(state, data, Hyperparams(lam=3.7))
        assert f == (3 - 1) / 2.0
        assert terms["loss"] == 1.0
        assert terms["l20"] == terms["frob"] == terms["upen"] == terms["vpen"] == 0.0

    def test_exact_fit_state(self):
        data = Dataset(np.eye(3), np.eye(3))
        state = trainer_mod.TrainState([np.eye(3)], [np.eye(3)], [])
        hp = Hyperparams(lam=0.2, gamma=0.4)
        f, terms = objective_f(state, data, hp)
        assert terms["loss"] == 0.0
        assert f == 3 * 0.2 + 0.5 * 0.4 * 3

    def test_matches_straight_line_oracle(self, tiny_data):
        shape = NetworkShape((4, 6, 5, 3))
        state = init_gaussian(shape, 0.5, make_rng(2), tiny_data.X)
        # perturb so no penalty term is trivially zero
        rng = make_rng(3)
        for m in (*state.U, *state.V):
            m += 0.3 * rng.standard_normal(m.shape)
        state.W[1][:, 2] = 0.0
        hp = Hyperparams(tau=0.7, pi=0.3, gamma=0.05, lam=0.11)
        f, _ = objective_f(state, tiny_data, hp)
        assert abs(f - objective_oracle(state, tiny_data, hp)) < 1e-12 * max(1.0, abs(f))

    def test_dimension_mismatch(self, tiny_data):
        shape = NetworkShape((4, 6, 4))
        state = init_gaussian(shape, 0.1, make_rng(4), tiny_data.X)
        with pytest.raises(ValueError):
            objective_f(state, tiny_data, Hyperparams())


class TestBcdIteration:
    def test_single_layer_degenerates(self, tiny_data):
        # h = 1: one hardmax prox and one weight step, no state blocks
        shape = NetworkShape((4, 3))
        state = init_gaussian(shape, 0.3, make_rng(5), tiny_data.X)
        hp = Hyperparams(tau=0.5, pi=0.1, gamma=0.2, lam=0.01, beta=0.05, L=3)
        old = state.copy()
        bcd_iteration(state, tiny_data, hp)
        assert state.V == []
        ref_u = trainer_mod.prox_hardmax_matrix(old.W[0] @ tiny_data.X, tiny_data.Y, hp.tau)
        assert np.array_equal(state.U[0], ref_u)
        ref_w = trainer_mod.pgm(
            ref_u.T, tiny_data.X.T, old.W[0].T, hp.tau, hp.gamma, hp.lam, L=3, beta=0.05
        ).T
        assert np.array_equal(state.W[0], ref_w)

    def test_sweep_is_in_place(self, tiny_data):
        # A forward-pass start: its U blocks are its own targets W_i V_(i-1).
        shape = NetworkShape((4, 6, 3))
        state = init_gaussian(shape, 0.3, make_rng(6), tiny_data.X)
        old = state.copy()
        aliased = state.copy()
        blocks = (state.W, state.U, state.V)
        hp = Hyperparams(tau=0.5, pi=0.2, gamma=0.1, lam=0.01, beta=0.1, L=2)
        b = list(state.U)
        dw, dv, products = bcd_iteration(state, tiny_data, hp, b=b)
        # The state's own lists now hold the new blocks, and the motions are
        # those of the new iterate against the old one, bit for bit.
        assert all(x is y for x, y in zip((state.W, state.U, state.V), blocks))
        assert dw > 0.0 and dv > 0.0
        assert dw == trainer_mod._sq_diff(state.W, old.W)
        assert dv == trainer_mod._sq_diff(state.V, old.V)
        # Each target is dropped once its prox has read it, and the returned
        # products are the new iterate's, bit for bit, W_0 X included.
        assert len(b) == shape.h and all(t is None for t in b)
        inputs = [tiny_data.X] + state.V
        assert [p.tobytes() for p in products] == [(w @ x).tobytes() for w, x in zip(state.W, inputs)]
        # The U list may serve as the targets: same bits as a copy of it.
        dw_a, dv_a, products_a = bcd_iteration(aliased, tiny_data, hp, b=aliased.U)
        assert (dw_a, dv_a) == (dw, dv)
        for x, y in zip(state.W + state.U + state.V + products, aliased.W + aliased.U + aliased.V + products_a):
            assert np.array_equal(x, y)

    def test_kept_starts_hand_on_their_products(self, tiny_data, monkeypatch):
        # At the reference constants every state solve keeps its start, so
        # the returned W_(i+1) V_i of each hidden layer is the product the
        # solve handed on; W_0 X is formed after the sweep.  Every product
        # has the bits of the product formed afresh.
        shape = NetworkShape((4, 6, 6, 3))  # V_1 by Woodbury, V_0 kept as it was
        state = init_gaussian(shape, 0.3, make_rng(24), tiny_data.X)
        v0 = state.V[0]
        solve = trainer_mod.solve_v
        handed = []

        def spied(*args, **kwargs):
            v, wv = solve(*args, **kwargs)
            handed.insert(0, wv)
            return v, wv

        monkeypatch.setattr(trainer_mod, "solve_v", spied)
        _, _, products = bcd_iteration(state, tiny_data, Hyperparams(), b=state.U)
        assert state.V[0] is v0
        assert all(p is wv for p, wv in zip(products[1:], handed, strict=True))
        inputs = [tiny_data.X] + state.V
        assert [p.tobytes() for p in products] == [(w @ x).tobytes() for w, x in zip(state.W, inputs)]

    def test_kept_targets_become_the_new_u_blocks(self, tiny_data, monkeypatch):
        # At the reference constants every step prox keeps its target and
        # returns it as the new U_i, the same array that the W_i step is
        # handed as its product.  The step must leave it as it was.
        shape = NetworkShape((4, 6, 6, 3))
        state = init_gaussian(shape, 0.3, make_rng(24), tiny_data.X)
        b = trainer_mod._coupling_products(state, tiny_data)
        targets, kept = list(b), [t.copy() for t in b]
        prox = trainer_mod.prox_step_matrix
        fired = []

        def spied(v, target, tau, pi):
            out = prox(v, target, tau, pi)
            fired.append(out is target)
            return out

        monkeypatch.setattr(trainer_mod, "prox_step_matrix", spied)
        bcd_iteration(state, tiny_data, Hyperparams(), b=b)
        assert fired == [True, True]
        for i in range(shape.h - 1):
            assert state.U[i] is targets[i]
            assert state.U[i].tobytes() == kept[i].tobytes()

    def test_sq_motion(self):
        a = make_rng(25).standard_normal((5, 4))
        b = a + 0.5
        assert trainer_mod._sq_motion(b, a) == float(((b - a) ** 2).sum())
        # A block kept as the same array takes no pass: None - None would raise.
        kept = np.full((2, 2), None, dtype=object)
        assert trainer_mod._sq_motion(kept, kept) == 0.0

    def test_update_order_and_staleness(self, monkeypatch):
        """Each sub-solver must receive exactly the iterate versions of the
        update scheme: stale W/V for the prox targets, fresh upstream blocks
        for the state solve."""
        data = make_cluster_dataset(4, 3, 12, make_rng(7))
        shape = NetworkShape((4, 6, 5, 3))
        state = init_gaussian(shape, 0.4, make_rng(8), data.X)
        # leave the feasible start so every block genuinely moves below
        perturb = make_rng(70)
        for m in (*state.U, *state.V):
            m += 0.2 * perturb.standard_normal(m.shape)
        hp = Hyperparams(tau=0.05, pi=0.5, gamma=0.2, lam=0.01, beta=0.05, L=2)

        calls = {"hardmax": [], "pgm": [], "solve_v": [], "prox_step": []}
        real_hardmax = trainer_mod.prox_hardmax_matrix
        real_pgm = trainer_mod.pgm
        real_solve_v = trainer_mod.solve_v
        real_prox_step = trainer_mod.prox_step_matrix

        def spy_hardmax(b, y, tau):
            calls["hardmax"].append({"b": b.copy(), "y": y})
            return real_hardmax(b, y, tau)

        def spy_pgm(u, v, w0, tau, gamma, lam, L, beta, vw0):
            # pgm overwrites the carried product, so it is copied at call time.
            calls["pgm"].append({"u": u, "v": v, "w0": w0, "vw0": vw0.copy()})
            return real_pgm(u, v, w0, tau, gamma, lam, L, beta, vw0)

        def spy_solve_v(w_next, u_next, u_cur, tau, pi, v_init):
            calls["solve_v"].append({"w_next": w_next, "u_next": u_next, "u_cur": u_cur, "v_init": v_init})
            return real_solve_v(w_next, u_next, u_cur, tau, pi, v_init)

        def spy_prox_step(v_target, b, tau, pi):
            calls["prox_step"].append({"v_target": v_target, "b": b.copy()})
            return real_prox_step(v_target, b, tau, pi)

        monkeypatch.setattr(trainer_mod, "prox_hardmax_matrix", spy_hardmax)
        monkeypatch.setattr(trainer_mod, "pgm", spy_pgm)
        monkeypatch.setattr(trainer_mod, "solve_v", spy_solve_v)
        monkeypatch.setattr(trainer_mod, "prox_step_matrix", spy_prox_step)

        old = state.copy()
        bcd_iteration(state, data, hp)
        new = state

        # every block must actually have moved, otherwise old-vs-new is vacuous
        for a, b in zip(old.W + old.U + old.V, new.W + new.U + new.V):
            assert not np.array_equal(a, b)

        # output block: b-target from W_3^k V_2^k, both previous-sweep
        assert len(calls["hardmax"]) == 1
        assert np.array_equal(calls["hardmax"][0]["b"], old.W[2] @ old.V[1])

        # weight steps, outermost first: fresh U, stale V, warm-started at
        # stale W, and the reused product is that of the stale W and V.  The
        # stale blocks are compared by value (the sweep has replaced them),
        # in pgm's transposed frame.
        expected_pgm = [(new.U[2], old.V[1], old.W[2]), (new.U[1], old.V[0], old.W[1]), (new.U[0], data.X, old.W[0])]
        assert len(calls["pgm"]) == 3
        for call, (u_ref, v_ref, w_ref) in zip(calls["pgm"], expected_pgm):
            assert np.shares_memory(call["u"], u_ref)
            assert np.array_equal(call["v"], v_ref.T)
            assert np.array_equal(call["w0"], w_ref.T)
            assert np.array_equal(call["vw0"], (w_ref @ v_ref).T)

        # state solves, i = h-1 .. 1: fresh downstream blocks, stale own U, warm start
        expected_solve = [
            (new.W[2], new.U[2], old.U[1], old.V[1]),
            (new.W[1], new.U[1], old.U[0], old.V[0]),
        ]
        assert len(calls["solve_v"]) == 2
        for call, (w_ref, u_next_ref, u_cur_ref, v_init_ref) in zip(calls["solve_v"], expected_solve):
            assert np.shares_memory(call["w_next"], w_ref)
            assert np.shares_memory(call["u_next"], u_next_ref)
            assert np.array_equal(call["u_cur"], u_cur_ref)
            assert np.array_equal(call["v_init"], v_init_ref)

        # pre-activation fits: fresh V target, b from stale W_i V_(i-1)
        assert len(calls["prox_step"]) == 2
        assert np.shares_memory(calls["prox_step"][0]["v_target"], new.V[1])
        assert np.array_equal(calls["prox_step"][0]["b"], old.W[1] @ old.V[0])
        assert np.shares_memory(calls["prox_step"][1]["v_target"], new.V[0])
        assert np.array_equal(calls["prox_step"][1]["b"], old.W[0] @ data.X)

    def test_fixed_point_is_preserved(self, tiny_data, monkeypatch):
        monkeypatch.setattr(solvers, "V_TOL", 1e-12)
        shape = NetworkShape((4, 8, 3))
        hp = theory_hp(K=60)
        state, report = train(tiny_data, shape, hp, rng=make_rng(9))
        assert report.records[-1].dw < 1e-20 and report.records[-1].dv < 1e-20
        again = state.copy()
        bcd_iteration(again, tiny_data, hp)
        for a, b in zip(state.W + state.U + state.V, again.W + again.U + again.V):
            assert np.linalg.norm(a - b) <= 1e-12


def cascade_columns(seed, hidden, n, tau, pi, scale):
    """One ``L = 0`` sweep from a forward-pass state.  For each layer ``i``
    below the top hidden layer, per column: the number of units of ``V_i``
    that moved by more than 1/2, the norm of the ``V_i`` move, the number
    ``k`` of ``U_(i+1)`` entries the step prox changed, ``max |2 V_(i+1) - 1|``
    over those entries (0 where none changed) and the slack of the state
    solve's tolerance and of ``EPS_TINY``."""
    data = make_cluster_dataset(6, 3, n, make_rng(seed))
    shape = NetworkShape((6, *hidden, 3))
    state = init_gaussian(shape, scale, make_rng(seed + 1), data.X)
    old = state.copy()
    bcd_iteration(state, data, Hyperparams(tau=tau, pi=pi, L=0))
    assert all(np.array_equal(a, b) for a, b in zip(state.W, old.W))
    layers = []
    for i in range(shape.h - 2):
        move = state.V[i] - old.V[i]
        changed = state.U[i + 1] != old.U[i + 1]
        k = changed.sum(axis=0)
        t_max = np.where(changed, np.abs(2.0 * state.V[i + 1] - 1.0), 0.0).max(axis=0)
        rhs = tau * (state.W[i + 1].T @ state.U[i + 1]) + pi * step(old.U[i])
        slack = 0.5 * np.sqrt(tau / pi * k) * EPS_TINY + solvers.V_TOL * np.linalg.norm(rhs, axis=0) / pi
        layers.append(((np.abs(move) > 0.5).sum(axis=0), np.linalg.norm(move, axis=0), k, t_max, slack))
    return layers


class TestFlipCascade:
    # With the weights held (L = 0), a forward-pass state has
    # U_(i+1) = W_(i+1) V_i and V_i = step(U_i), so the V_i solve's residual
    # is the change D that the step prox made to U_(i+1).  An entry changes
    # only where tau b^2 < pi |t|, t = 2 V_(i+1) - 1, and by at most
    # sqrt(pi |t| / tau), so ||D_j||^2 <= (pi / tau) k max|t|.  By the V
    # solve's oracle bound the V_i column then moves by at most
    # (1/2) sqrt(k max|t|), and each unit that moves by more than 1/2 adds
    # more than 1/4 to the squared move: fewer than k max|t| units flip.
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        hidden=st.lists(st.integers(2, 24), min_size=2, max_size=3),
        n=st.integers(4, 32),
        log_tau=st.floats(-6.0, 0.0),
        log_ratio=st.floats(0.0, 7.0),
        log_scale=st.floats(-2.0, 0.5),
    )
    def test_flips_below_a_hidden_layer_are_bounded(self, seed, hidden, n, log_tau, log_ratio, log_scale):
        tau = 10.0 ** log_tau
        pi = tau / 10.0 ** log_ratio
        worst = 0.0
        for moved, move, k, t_max, slack in cascade_columns(seed, hidden, n, tau, pi, 10.0 ** log_scale):
            bound = 0.5 * np.sqrt(k * t_max) + slack
            worst = max(worst, float(np.max(move / np.where(bound > 0.0, bound, 1.0))))
            assert np.all(move <= bound)
            assert np.all((moved == 0) | (moved < (2.0 * bound) ** 2))
        target(worst, label="move / bound")

    def test_a_changed_u_block_moves_the_layer_below(self):
        # The property above is not vacuous: here the step prox changes
        # U_1 and V_0 moves to within a factor 2 of its bound.
        (moved, move, k, t_max, slack), = cascade_columns(133, (11, 9), 24, 10.0 ** -4.58, 10.0 ** -4.83, 0.842)
        assert k.sum() > 0
        assert np.max(move / (0.5 * np.sqrt(k * t_max) + slack)) > 0.5


# Trains one full-batch run twice at the reference constants: once as is,
# so each state solve that keeps its start hands its W_(i+1) V_i product
# on, and once with every product recomputed.  Prints how many products
# were handed on and whether the two runs agree bit for bit.
CARRIED_VS_RECOMPUTED = """
import json
import stepbcd.trainer as trainer
from stepbcd.core import Hyperparams, NetworkShape, make_rng
from datagen import make_cluster_dataset

solve_v = trainer.solve_v
handed_on = []

def counted(*args, **kwargs):
    v, wv = solve_v(*args, **kwargs)
    handed_on.append(wv is not None)
    return v, wv

def run():
    data = make_cluster_dataset(64, 10, 400, make_rng(5))
    state, report = trainer.train(data, NetworkShape((64, 96, 96, 10)), Hyperparams(K=3), rng=make_rng(6))
    blocks = [m.tobytes() for m in state.W + state.U + state.V]
    return blocks, [rec.row()[:-1] for rec in report.records]

trainer.solve_v = counted
carried = run()
trainer.solve_v = lambda *args, **kwargs: (solve_v(*args, **kwargs)[0], None)
recomputed = run()
print(json.dumps({"handed_on": sum(handed_on), "solves": len(handed_on),
                  "blocks": carried[0] == recomputed[0], "rows": carried[1] == recomputed[1]}))
"""


def _sweep_loop(data, shape, hp, rng, init_scale, warmup_batch, shuffle_rng):
    """``train`` written as a loop of public calls, none of them given ``b``."""
    state = init_gaussian(shape, init_scale, rng, data.X)
    rows = [(0, *objective_f(state, data, hp), 0.0, 0.0)]
    for k in range(1, hp.K + 1):
        if k == 1 and warmup_batch is not None:
            w = list(state.W)
            perm = shuffle_rng.permutation(data.n)
            for start in range(0, data.n, warmup_batch):
                idx = perm[start:start + warmup_batch]
                batch = Dataset(np.ascontiguousarray(data.X[:, idx]), np.ascontiguousarray(data.Y[:, idx]))
                u, v = forward_blocks(w, batch.X)
                bcd_iteration(trainer_mod.TrainState(w, u, v), batch, hp)
            new = trainer_mod.TrainState(w, *forward_blocks(w, data.X))
        else:
            new = state.copy()
            bcd_iteration(new, data, hp)
        dw = sum(float(((a - b) ** 2).sum()) for a, b in zip(new.W, state.W))
        dv = sum(float(((a - b) ** 2).sum()) for a, b in zip(new.V, state.V))
        state = new
        rows.append((k, *objective_f(state, data, hp), dw, dv))
    return state, rows


class TestTrain:
    @pytest.mark.parametrize("warmup", [False, True])
    def test_carried_products_match_public_calls(self, warmup):
        # train computes each W_i V_(i-1) once and carries it; the result must
        # be bit for bit that of recomputing the products in every call.
        data = make_cluster_dataset(4, 3, 24, make_rng(21))
        shape = NetworkShape((4, 6, 8, 3))  # V_1 by Woodbury, V_0 by CG
        hp = Hyperparams(tau=0.5, pi=0.2, gamma=0.1, lam=0.01, beta=0.05, L=2, K=4)
        kw = dict(warmup_epochs=1, warmup_batch=8, shuffle_rng=make_rng(22)) if warmup else {}
        state, report = train(data, shape, hp, rng=make_rng(23), init_scale=0.3, **kw)
        ref_state, rows = _sweep_loop(data, shape, hp, make_rng(23), 0.3, 8 if warmup else None, make_rng(22))
        assert len(report.records) == len(rows) == hp.K + 1
        for rec, (k, f, terms, dw, dv) in zip(report.records, rows):
            assert (rec.k, rec.f, rec.loss, rec.l20, rec.frob, rec.upen, rec.vpen, rec.dw, rec.dv) == (
                k, f, terms["loss"], terms["l20"], terms["frob"], terms["upen"], terms["vpen"], dw, dv)
        for a, b in zip(state.W + state.U + state.V, ref_state.W + ref_state.U + ref_state.V):
            assert np.array_equal(a, b)
        assert report.records[-1].dw > 0.0 and report.records[-1].upen > 0.0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_handed_on_products_match_recomputed_ones(self, threads):
        # An OpenBLAS product splits its sums by thread count, so the
        # equivalence is checked at one thread and at two, each in a fresh
        # process that fixes the count before numpy loads.
        here = Path(__file__).resolve().parent
        path = os.pathsep.join([str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(threads)}
        out = subprocess.run([sys.executable, "-c", CARRIED_VS_RECOMPUTED], env=env,
                             capture_output=True, text=True, check=True).stdout
        result = json.loads(out)
        assert result["handed_on"] == result["solves"] == 3 * 2
        assert result["blocks"] and result["rows"]

    def test_full_batch_sweep_holds_one_state(self):
        # The sweep replaces each block in place and drops each b target once
        # its prox has read it.  Keeping the old state alive through a sweep
        # puts the peak at about 3.6x the state; in place it is about 3.05x.
        # Here the square layer's start fails its check and CG iterates.
        data = make_cluster_dataset(30, 5, 200, make_rng(31))
        shape = NetworkShape((30, 60, 60, 5))  # V_1 by Woodbury, V_0 by CG
        hp = Hyperparams(tau=0.5, pi=0.2, gamma=0.1, lam=0.01, beta=0.05, L=2, K=2)
        tracemalloc.start()
        try:
            state, _ = train(data, shape, hp, rng=make_rng(32))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state_bytes = sum(m.nbytes for m in state.W + state.U + state.V)
        assert peak <= 3.2 * state_bytes, f"peak {peak / state_bytes:.2f}x the state"

    def test_kept_start_sweep_forms_no_full_size_temporary(self):
        # With the reference constants both state solves keep their start:
        # the Woodbury iterate below the output layer and the certified
        # v_init of the square layer.  The peak comes in the first: the
        # state, the two products not yet read, the right-hand side and the
        # iterate, about 2.02x the state.  Squaring the right-hand side
        # whole for its column norms there adds one 400x1000 block (2.13x).
        data = make_cluster_dataset(30, 5, 1000, make_rng(31))
        tracemalloc.start()
        try:
            state, _ = train(data, NetworkShape((30, 400, 400, 5)), Hyperparams(K=2), rng=make_rng(32))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state_bytes = sum(m.nbytes for m in state.W + state.U + state.V)
        assert peak <= 2.1 * state_bytes, f"peak {peak / state_bytes:.2f}x the state"

    @pytest.mark.parametrize("kw", [dict(batch_size=0), dict(batch_size=-5), dict(warmup_epochs=1, warmup_batch=-1)])
    def test_batch_size_below_one_rejected(self, tiny_data, kw):
        with pytest.raises(ValueError, match="at least 1"):
            train(tiny_data, NetworkShape((4, 8, 3)), Hyperparams(K=1), rng=make_rng(10), **kw)

    def test_negative_warmup_epochs_rejected(self, tiny_data):
        with pytest.raises(ValueError, match="warmup_epochs must be at least 0"):
            train(tiny_data, NetworkShape((4, 8, 3)), Hyperparams(K=1), rng=make_rng(10), warmup_epochs=-1)

    def test_empty_dataset_rejected(self):
        # The loss term divides by the sample count.
        empty = Dataset(np.zeros((4, 0)), np.zeros((3, 0)))
        with pytest.raises(ValueError, match="at least one sample"):
            train(empty, NetworkShape((4, 5, 3)), Hyperparams(K=1), rng=make_rng(1))

    def test_k_zero_returns_initial_state(self, tiny_data):
        shape = NetworkShape((4, 8, 3))
        hp = Hyperparams(K=0)
        state, report = train(tiny_data, shape, hp, rng=make_rng(10))
        ref = init_gaussian(shape, 0.01, make_rng(10), tiny_data.X)
        assert len(report.records) == 1
        for a, b in zip(state.W + state.U + state.V, ref.W + ref.U + ref.V):
            assert np.array_equal(a, b)

    def test_bit_identical_across_runs(self, tiny_data):
        shape = NetworkShape((4, 8, 3))
        hp = theory_hp(K=5)
        s1, r1 = train(tiny_data, shape, hp, rng=make_rng(12))
        s2, r2 = train(tiny_data, shape, hp, rng=make_rng(12))
        for a, b in zip(s1.W + s1.U + s1.V, s2.W + s2.U + s2.V):
            assert np.array_equal(a, b)
        for x, y in zip(r1.records, r2.records):
            assert x.row()[:-1] == y.row()[:-1]  # wall time may differ

    def test_accepts_reference_hyperparameters(self, tiny_data):
        shape = NetworkShape((4, 8, 3))
        hp = Hyperparams(K=3)  # reference constants, shortened run
        state, report = train(tiny_data, shape, hp, rng=make_rng(13))
        assert len(report.records) == 4
        assert all(np.isfinite(rec.f) for rec in report.records)

    def test_architecture_data_mismatch(self, tiny_data):
        with pytest.raises(ValueError, match="input width"):
            train(tiny_data, NetworkShape((5, 8, 3)), Hyperparams(K=1), rng=make_rng(0))
        with pytest.raises(ValueError, match="output width"):
            train(tiny_data, NetworkShape((4, 8, 4)), Hyperparams(K=1), rng=make_rng(0))

    def test_early_stop(self, tiny_data):
        shape = NetworkShape((4, 8, 3))
        hp = theory_hp(K=50)
        _, report = train(tiny_data, shape, hp, rng=make_rng(14), early_stop_tol=1e-12)
        assert len(report.records) < 51

    def test_minibatch_mode_runs_and_is_deterministic(self, tiny_data):
        shape = NetworkShape((4, 8, 3))
        hp = theory_hp(K=3)
        kw = dict(batch_size=8, shuffle_rng=make_rng(77))
        s1, r1 = train(tiny_data, shape, hp, rng=make_rng(15), **kw)
        kw = dict(batch_size=8, shuffle_rng=make_rng(77))
        s2, r2 = train(tiny_data, shape, hp, rng=make_rng(15), **kw)
        for a, b in zip(s1.W, s2.W):
            assert np.array_equal(a, b)
        # the coupling penalties are zero by construction in stateless mode
        assert r1.records[-1].upen == 0.0 and r1.records[-1].vpen == 0.0

    def test_derived_step_size_changes_the_run(self, tiny_data):
        shape = NetworkShape((4, 8, 3))
        hp = Hyperparams(K=2, lam=0.0)
        s_fixed, _ = train(tiny_data, shape, hp, rng=make_rng(20))
        s_derived, _ = train(tiny_data, shape, hp, rng=make_rng(20), derive_beta=True)
        assert any(not np.array_equal(a, b) for a, b in zip(s_fixed.W, s_derived.W))
        for w in s_derived.W:
            assert np.all(np.isfinite(w))

    def test_warmup_epochs_change_the_run(self, tiny_data):
        shape = NetworkShape((4, 8, 3))
        hp = Hyperparams(K=4)
        s_plain, _ = train(tiny_data, shape, hp, rng=make_rng(16), shuffle_rng=make_rng(1))
        s_warm, _ = train(
            tiny_data, shape, hp, rng=make_rng(16), warmup_epochs=2, warmup_batch=8, shuffle_rng=make_rng(1)
        )
        assert any(not np.array_equal(a, b) for a, b in zip(s_plain.W, s_warm.W))


class TestDescent:
    def test_theory_regime_descends(self, tiny_data, monkeypatch):
        monkeypatch.setattr(solvers, "V_TOL", 1e-12)
        shape = NetworkShape((4, 8, 3))
        hp = theory_hp(K=50)
        _, report = train(tiny_data, shape, hp, rng=make_rng(17))
        ok, worst = check_descent(report, hp, tol=1e-9)
        assert ok, f"descent violated by {worst}"
        f = report.f_values
        assert all(b <= a + 1e-9 for a, b in zip(f, f[1:]))
        assert all(v >= 0.0 for v in f)
        assert abs(f[-1] - f[-2]) < 1e-10  # the logged sequence converges
        assert report.records[-1].dw < 1e-8 and report.records[-1].dv < 1e-8

    def test_constant_report_passes(self):
        from stepbcd.trainer import BcdRecord

        recs = [BcdRecord(k, 1.0, 1.0, 0, 0, 0, 0, 0.0, 0.0, 0.0) for k in range(3)]
        ok, worst = check_descent(BcdReport(recs), Hyperparams())
        assert ok and worst <= 0.0

    def test_reference_regime_is_diagnostic_only(self, tiny_data):
        shape = NetworkShape((4, 8, 3))
        hp = Hyperparams(K=3)  # gamma < 1/beta here
        _, report = train(tiny_data, shape, hp, rng=make_rng(18))
        ok, worst = check_descent(report, hp)
        assert isinstance(ok, bool) and isinstance(worst, float)

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError):
            check_descent(BcdReport([]), Hyperparams())


class TestReportCsv:
    def test_round_trip(self, tmp_path, tiny_data):
        shape = NetworkShape((4, 8, 3))
        hp = theory_hp(K=4)
        _, report = train(tiny_data, shape, hp, rng=make_rng(19))
        path = tmp_path / "report.csv"
        report.to_csv(path)
        with open(path, newline="") as f:
            header, *rows = csv.reader(f)
        assert tuple(header) == trainer_mod.REPORT_FIELDS
        assert len(rows) == len(report.records) == 5
        for rec, row in zip(report.records, rows):
            assert (int(row[0]), *map(float, row[1:])) == rec.row()
