import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

import stepbcd.trainer as trainer_mod
from stepbcd import prox, solvers
from stepbcd.core import Hyperparams, NetworkShape, TrainState, forward_blocks, init_gaussian, make_rng
from stepbcd.dataio import Dataset, to_dataset
from stepbcd.prox import EPS_TINY, step
from stepbcd.trainer import BcdReport, bcd_iteration, objective_f, train

from datagen import make_cluster_dataset, make_synthetic_images
from oracles import check_descent, packed_pattern


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
        dw, dv, products, coupling = bcd_iteration(state, tiny_data, hp, b=b)
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
        dw_a, dv_a, products_a, coupling_a = bcd_iteration(aliased, tiny_data, hp, b=aliased.U)
        assert (dw_a, dv_a, coupling_a) == (dw, dv, coupling)
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
            v, wv, dv, kept = solve(*args, **kwargs)
            handed.insert(0, wv)
            return v, wv, dv, kept

        monkeypatch.setattr(trainer_mod, "solve_v", spied)
        _, _, products, _ = bcd_iteration(state, tiny_data, Hyperparams(), b=state.U)
        assert state.V[0] is v0
        assert all(p is wv for p, wv in zip(products[1:], handed, strict=True))
        inputs = [tiny_data.X] + state.V
        assert [p.tobytes() for p in products] == [(w @ x).tobytes() for w, x in zip(state.W, inputs)]

    def test_kept_targets_become_the_new_u_blocks(self, tiny_data, monkeypatch):
        # At the reference constants every step prox keeps its target and
        # returns it as the new U_i, the same array that the W_i step is
        # handed as its product.  The step must leave it as it was, and the
        # sweep keeps U_i as its packed pattern.
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
            assert targets[i].tobytes() == kept[i].tobytes()
            assert np.array_equal(state.U[i], packed_pattern(kept[i]))

    @pytest.mark.parametrize("regime", ["kept", "entrywise"])
    def test_coupling_sums_are_the_objective_terms(self, regime, monkeypatch):
        # The sweep sums each layer's coupling residuals as it settles the
        # blocks and keeps each hidden U_i packed.  Run with float U
        # blocks, as a mini-batch sweep runs, the same sweep leaves the
        # float state, and objective_f's terms over it must have the sums'
        # bits, layer by layer.  Two sweeps, the second from the packed
        # state.  At the reference constants every step prox keeps its
        # target; at tau=0.5 pi=0.2 each takes the entrywise path, and CG
        # iterates on the square layer.
        data = make_cluster_dataset(30, 5, 200, make_rng(31))
        shape = NetworkShape((30, 60, 60, 5))
        hp = Hyperparams() if regime == "kept" else Hyperparams(tau=0.5, pi=0.2, gamma=0.1, lam=0.01, beta=0.05, L=2)
        prox_step = trainer_mod.prox_step_matrix
        kept = []

        def spied(v, target, tau, pi):
            out = prox_step(v, target, tau, pi)
            kept.append(out is target)
            return out

        monkeypatch.setattr(trainer_mod, "prox_step_matrix", spied)
        state = init_gaussian(shape, 0.01, make_rng(32), data.X)
        ref = state.copy()
        b, b_ref = state.U, ref.U
        for _ in range(2):
            _, _, b, (upen, vpen) = bcd_iteration(state, data, hp, b=b)
            b_ref = trainer_mod._sweep(ref, data, hp, False, b_ref)
            b_ref[0] = ref.W[0] @ data.X
            for x, y in zip(state.W + state.V + b + state.U[-1:], ref.W + ref.V + b_ref + ref.U[-1:]):
                assert x.tobytes() == y.tobytes()
            assert all(np.array_equal(p, packed_pattern(u)) for p, u in zip(state.U[:-1], ref.U[:-1], strict=True))
            assert upen == [trainer_mod._sq_motion(u, p) for u, p in zip(ref.U, b_ref)]
            assert vpen == [trainer_mod._sq_step_gap(v, u) for u, v in zip(ref.U, ref.V)]
            assert min(upen) > 0.0 and (min(vpen) > 0.0) == (regime == "entrywise")
            _, terms = objective_f(ref, data, hp, b_ref)
            assert (terms["upen"], terms["vpen"]) == trainer_mod._penalties(hp, upen, vpen)
        assert set(kept) == {regime == "kept"}

    def test_sweep_from_a_packed_state_matches_the_float_state(self):
        # The sweep reads each old hidden U_i only as its step pattern, so a
        # state that holds that pattern packed sweeps to the bits of the
        # float state.  The state is off a forward pass, and its 203
        # columns end each packed row in padding bits.
        data = make_cluster_dataset(30, 5, 203, make_rng(33))
        shape = NetworkShape((30, 60, 60, 5))
        hp = Hyperparams(tau=0.5, pi=0.2, gamma=0.1, lam=0.01, beta=0.05, L=2)
        state = init_gaussian(shape, 0.01, make_rng(34), data.X)
        perturb = make_rng(35)
        for m in (*state.U, *state.V):
            m += 0.2 * perturb.standard_normal(m.shape)
        packed = state.copy()
        packed.U[:-1] = [packed_pattern(u) for u in state.U[:-1]]
        packed.check_consistent(shape, data.n)
        dw, dv, b, coupling = bcd_iteration(state, data, hp)
        dw_p, dv_p, b_p, coupling_p = bcd_iteration(packed, data, hp)
        assert dv > 0.0 and (dw_p, dv_p, coupling_p) == (dw, dv, coupling)
        for x, y in zip(state.W + state.U + state.V + b, packed.W + packed.U + packed.V + b_p, strict=True):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    def test_sq_motion(self):
        # The kernel's sum: each column's squares added row after row, then
        # the column sums totalled; an F-ordered block goes through its
        # C-ordered transpose, so its sum has the same bits.
        a = make_rng(25).standard_normal((5, 4))
        b = a + 0.5
        assert trainer_mod._sq_motion(b, a) == float(((b - a) ** 2).sum(axis=0).sum())
        assert trainer_mod._sq_motion(b.T, a.T) == trainer_mod._sq_motion(b, a)
        assert trainer_mod._sq_motion(b) == float((b ** 2).sum(axis=0).sum())
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
            out = real_hardmax(b, y, tau)
            calls["hardmax"].append({"b": b.copy(), "y": y, "out": out})
            return out

        def spy_pgm(u, v, w0, tau, gamma, lam, L, beta, vw0):
            # pgm overwrites the carried product, and a later state solve
            # writes over the V it reads, so both are copied at call time.
            calls["pgm"].append({"u": u, "v": v.copy(), "w0": w0, "vw0": vw0.copy()})
            return real_pgm(u, v, w0, tau, gamma, lam, L, beta, vw0)

        def spy_solve_v(w_next, u_next, s_cur, tau, pi, v_init):
            # solve_v writes the new V_i over its start, so it is copied at call time.
            calls["solve_v"].append({"w_next": w_next, "u_next": u_next, "s_cur": s_cur,
                                     "v_init": v_init.copy(), "v_buffer": v_init})
            return real_solve_v(w_next, u_next, s_cur, tau, pi, v_init)

        def spy_prox_step(v_target, b, tau, pi):
            b_in = b.copy()
            out = real_prox_step(v_target, b, tau, pi)
            calls["prox_step"].append({"v_target": v_target, "b": b_in, "out": out})
            return out

        monkeypatch.setattr(trainer_mod, "prox_hardmax_matrix", spy_hardmax)
        monkeypatch.setattr(trainer_mod, "pgm", spy_pgm)
        monkeypatch.setattr(trainer_mod, "solve_v", spy_solve_v)
        monkeypatch.setattr(trainer_mod, "prox_step_matrix", spy_prox_step)

        old = state.copy()
        bcd_iteration(state, data, hp)
        new = state
        # The sweep keeps each hidden U_i as its packed pattern, so the new
        # float U blocks are the prox outputs, input layer first.
        new_u = [c["out"] for c in reversed(calls["prox_step"])] + [calls["hardmax"][0]["out"]]
        assert new.U[2] is new_u[2]
        for i in range(2):
            assert np.array_equal(new.U[i], packed_pattern(new_u[i]))

        # every block must actually have moved, otherwise old-vs-new is vacuous
        for a, b in zip(old.W + old.U + old.V, new.W + new_u + new.V):
            assert not np.array_equal(a, b)

        # output block: b-target from W_3^k V_2^k, both previous-sweep
        assert len(calls["hardmax"]) == 1
        assert np.array_equal(calls["hardmax"][0]["b"], old.W[2] @ old.V[1])

        # weight steps, outermost first: fresh U, stale V, warm-started at
        # stale W, and the reused product is that of the stale W and V.  The
        # stale blocks are compared by value (the sweep has replaced them),
        # in pgm's transposed frame.
        expected_pgm = [(new_u[2], old.V[1], old.W[2]), (new_u[1], old.V[0], old.W[1]), (new_u[0], data.X, old.W[0])]
        assert len(calls["pgm"]) == 3
        for call, (u_ref, v_ref, w_ref) in zip(calls["pgm"], expected_pgm):
            assert np.shares_memory(call["u"], u_ref)
            assert np.array_equal(call["v"], v_ref.T)
            assert np.array_equal(call["w0"], w_ref.T)
            assert np.array_equal(call["vw0"], (w_ref @ v_ref).T)

        # state solves, i = h-1 .. 1: fresh downstream blocks, the pattern
        # step(U_i) of the stale own U packed one bit per entry, warm start
        expected_solve = [
            (new.W[2], new_u[2], old.U[1], old.V[1]),
            (new.W[1], new_u[1], old.U[0], old.V[0]),
        ]
        assert len(calls["solve_v"]) == 2
        for call, (w_ref, u_next_ref, u_cur_ref, v_init_ref), v_new in zip(
                calls["solve_v"], expected_solve, [new.V[1], new.V[0]]):
            assert call["v_buffer"] is v_new
            assert np.shares_memory(call["w_next"], w_ref)
            assert np.shares_memory(call["u_next"], u_next_ref)
            assert call["s_cur"].dtype == np.uint8
            assert np.array_equal(call["s_cur"], packed_pattern(u_cur_ref))
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
        trained, report = train(tiny_data, shape, hp, rng=make_rng(9))
        assert report.records[-1].dw < 1e-20 and report.records[-1].dv < 1e-20
        # train returns the weights alone; its full-batch sweeps are these.
        state = init_gaussian(shape, 0.01, make_rng(9), tiny_data.X)
        for _ in range(hp.K):
            bcd_iteration(state, tiny_data, hp)
        assert all(np.array_equal(a, b) for a, b in zip(trained.W, state.W, strict=True))
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
        # The sweep keeps U_(i+1) packed; its float value is the prox of the
        # forward-pass target against the new V_(i+1).
        new_u = prox.prox_step_matrix(state.V[i + 1], old.U[i + 1], tau, pi)
        assert np.array_equal(state.U[i + 1], packed_pattern(new_u))
        changed = new_u != old.U[i + 1]
        k = changed.sum(axis=0)
        t_max = np.where(changed, np.abs(2.0 * state.V[i + 1] - 1.0), 0.0).max(axis=0)
        rhs = tau * (state.W[i + 1].T @ new_u) + pi * step(old.U[i])
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
# on, and once with every product recomputed and no check's column sums
# handed on, so the sweep sums every coupling term itself.  Prints how many products
# were handed on and whether the two runs agree bit for bit.
CARRIED_VS_RECOMPUTED = """
import json
import stepbcd.trainer as trainer
from stepbcd.core import Hyperparams, NetworkShape, make_rng
from datagen import make_cluster_dataset

solve_v = trainer.solve_v
handed_on = []

def counted(w_next, *args, **kwargs):
    v, wv, dv, kept = solve_v(w_next, *args, **kwargs)
    handed_on.append(wv.tobytes() == (w_next @ v).tobytes())
    return v, wv, dv, kept

def recomputed_product(w_next, *args, **kwargs):
    v, _, dv, _ = solve_v(w_next, *args, **kwargs)
    return v, w_next @ v, dv, None

def run():
    data = make_cluster_dataset(64, 10, 400, make_rng(5))
    state, report = trainer.train(data, NetworkShape((64, 96, 96, 10)), Hyperparams(K=3), rng=make_rng(6))
    blocks = [w.tobytes() for w in state.W]
    return blocks, [rec.row()[:-1] for rec in report.records]

trainer.solve_v = counted
carried = run()
trainer.solve_v = recomputed_product
recomputed = run()
print(json.dumps({"handed_on": sum(handed_on), "solves": len(handed_on),
                  "blocks": carried[0] == recomputed[0], "rows": carried[1] == recomputed[1]}))
"""


def _sweep_loop(data, shape, hp, rng, init_scale, batch_size, shuffle_rng):
    """``train`` written as a loop of public calls, none of them given ``b``."""
    state = init_gaussian(shape, init_scale, rng, data.X)
    rows = [(0, *objective_f(state, data, hp), 0.0, 0.0)]
    for k in range(1, hp.K + 1):
        if batch_size is not None:
            w = list(state.W)
            perm = shuffle_rng.permutation(data.n)
            for start in range(0, data.n, batch_size):
                idx = perm[start:start + batch_size]
                batch = Dataset(np.ascontiguousarray(data.X[:, idx]), np.ascontiguousarray(data.Y[:, idx]))
                u, v = forward_blocks(w, batch.X)
                bcd_iteration(trainer_mod.TrainState(w, u, v), batch, hp)
            new = trainer_mod.TrainState(w, *forward_blocks(w, data.X))
        else:
            new = state.copy()
            coupling = bcd_iteration(new, data, hp)[3]
        # The motions are summed by the package's one sum of squares.
        dw, dv = trainer_mod._sq_diff(new.W, state.W), trainer_mod._sq_diff(new.V, state.V)
        state = new
        if batch_size is None:
            # The sweep keeps the hidden U blocks packed and sums their
            # coupling terms itself; the objective reads W and U_h.
            _, terms = objective_f(TrainState(state.W, [], []), data, hp, [state.U[-1]])
            terms["upen"], terms["vpen"] = trainer_mod._penalties(hp, *coupling)
            rows.append((k, sum(terms.values()), terms, dw, dv))
        else:
            rows.append((k, *objective_f(state, data, hp), dw, dv))
    return state, rows


class TestTrain:
    @pytest.mark.parametrize("minibatch", [False, True])
    def test_carried_products_match_public_calls(self, minibatch):
        # train computes each W_i V_(i-1) once and carries it; the result must
        # be bit for bit that of recomputing the products in every call.
        data = make_cluster_dataset(4, 3, 24, make_rng(21))
        shape = NetworkShape((4, 6, 8, 3))  # V_1 by Woodbury, V_0 by CG
        hp = Hyperparams(tau=0.5, pi=0.2, gamma=0.1, lam=0.01, beta=0.05, L=2, K=4)
        batch_size = 8 if minibatch else None
        state, report = train(data, shape, hp, rng=make_rng(23), init_scale=0.3, batch_size=batch_size,
                              shuffle_rng=make_rng(22))
        ref_state, rows = _sweep_loop(data, shape, hp, make_rng(23), 0.3, batch_size, make_rng(22))
        assert len(report.records) == len(rows) == hp.K + 1
        for rec, (k, f, terms, dw, dv) in zip(report.records, rows):
            assert (rec.k, rec.f, rec.loss, rec.l20, rec.frob, rec.upen, rec.vpen, rec.dw, rec.dv) == (
                k, f, terms["loss"], terms["l20"], terms["frob"], terms["upen"], terms["vpen"], dw, dv)
        assert state.U == state.V == [] and state.n_samples == data.n  # the weights alone
        for a, b in zip(state.W, ref_state.W, strict=True):
            assert np.array_equal(a, b)
        # A mini-batch epoch ends on a forward pass, whose coupling residuals are zero.
        assert report.records[-1].dw > 0.0 and (report.records[-1].upen == 0.0) == minibatch

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
        # The sweep replaces each block in place, drops each b target once
        # its prox has read it and keeps each final hidden U_i as its
        # packed step pattern, which the next sweep's solve reads.  Keeping
        # the old state alive through a sweep puts the peak at about 3.6x
        # the state; in place it is about 2.39x.  Here the square layer's
        # start fails its check and CG iterates: the failed start's product
        # is dropped before the right-hand side is formed, and CG updates
        # its iterate in place.  Either full-size temporary puts the peak
        # above 2.8x.
        data = make_cluster_dataset(30, 5, 200, make_rng(31))
        shape = NetworkShape((30, 60, 60, 5))  # V_1 by Woodbury, V_0 by CG
        hp = Hyperparams(tau=0.5, pi=0.2, gamma=0.1, lam=0.01, beta=0.05, L=2, K=2)
        tracemalloc.start()
        try:
            state, _ = train(data, shape, hp, rng=make_rng(32))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state_bytes = sum(8 * r * c for _, (r, c) in TrainState.layout(shape, data.n))
        assert peak <= 2.45 * state_bytes, f"peak {peak / state_bytes:.2f}x the state"

    def test_kept_start_sweep_forms_no_full_size_temporary(self):
        # With the reference constants both state solves keep their start:
        # the Woodbury iterate below the output layer, solved one chunk of
        # columns at a time, and the certified v_init of the square layer.
        # The peak, about 1.28x the state, comes in the square layer's
        # solve: the state without the old U_0, whose packed pattern the
        # solve reads, the target W_0 X, the product W_1 V_0 the solve
        # hands on and its check's row blocks.  A 400x1000 block is 0.22x.
        # Each hidden U_i is packed once its new product is formed, and the
        # report reads the weights and U_h alone: holding the float U_i
        # until the objective put the peak there, at 1.53x, over the state
        # and the new products.
        data = make_cluster_dataset(30, 5, 1000, make_rng(31))
        shape = NetworkShape((30, 400, 400, 5))
        tracemalloc.start()
        try:
            state, _ = train(data, shape, Hyperparams(K=2), rng=make_rng(32))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state_bytes = sum(8 * r * c for _, (r, c) in TrainState.layout(shape, data.n))
        assert peak <= 1.35 * state_bytes, f"peak {peak / state_bytes:.2f}x the state"

    def test_minibatch_epoch_holds_one_state(self):
        # A mini-batch run holds no hidden block over all N samples: the
        # init and each epoch's closing forward pass go in column chunks
        # straight into U_h and packed bits, and an epoch releases the old
        # weights before its closing pass.  The peak, about 0.43x the W/U/V
        # state, comes in a weight step of a batch's sweep, which holds its
        # iterate and its gradient and lets go of the superseded W_i; the
        # state solve peaks at 0.39x and the closing pass at 0.35x.  Keeping
        # the old W_i through the step and forming gamma w whole put the
        # peak at 0.57x.  A full-size 400x1000 block is 0.22x, so a hidden U
        # and V of that pass over all samples put it at 0.80x, and its whole
        # state put the run's peak at 1.10x.
        data = make_cluster_dataset(30, 5, 1000, make_rng(31))
        hp = Hyperparams(tau=1.0, pi=0.5, lam=0.0, L=2, K=2)
        shape = NetworkShape((30, 400, 400, 5))
        tracemalloc.start()
        try:
            state, _ = train(data, shape, hp, rng=make_rng(32),
                             derive_beta=True, batch_size=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state_bytes = sum(8 * r * c for _, (r, c) in TrainState.layout(shape, data.n))
        assert peak <= 0.50 * state_bytes, f"peak {peak / state_bytes:.2f}x the state"

    @pytest.mark.parametrize("regime", ["witness", "padded"])
    def test_minibatch_dv_counts_the_changed_activations(self, regime):
        # Every V entry of a mini-batch epoch's entry and closing states is
        # 0 or 1, so the epoch counts the hidden activations that changed
        # from packed bits.  The count must have the bits of the float sum
        # of squared differences.  The epoch keeps no hidden block, so the
        # new V is taken by a separate forward pass of the new weights.
        # The witness corpus flips 122 activations in its first epoch; the
        # small regime's 45 columns pad each packed row with three zero bits.
        if regime == "witness":
            images, labels = make_synthetic_images(3000, 10, make_rng(606))
            data = to_dataset(images[:2000], labels[:2000], 10)
            shape, batch_size = NetworkShape((784, 20, 20, 10)), 100
            hp = Hyperparams(tau=1.0, pi=1e-3, gamma=1e-8, lam=0.0, beta=0.00072, L=5)
        else:
            data = make_cluster_dataset(4, 3, 45, make_rng(21))
            shape, batch_size = NetworkShape((4, 6, 5, 3)), 8
            hp = Hyperparams(tau=0.5, pi=0.2, gamma=0.1, lam=0.0, beta=0.05, L=2)
        rng = make_rng(17)
        perm = rng.spawn(1)[0].permutation(data.n)
        old = init_gaussian(shape, 0.01, rng, data.X)
        state = TrainState([w.copy() for w in old.W], [], [], data.n)  # the weights alone, as train keeps them
        _, bits = trainer_mod._forward_pass(state.W, data.X)
        dw, dv, b = trainer_mod._epoch_over_batches(state, data, hp, True, batch_size, perm, bits)
        new_u, new_v = forward_blocks(state.W, data.X)
        flips = sum(int((a != c).sum()) for a, c in zip(new_v, old.V))
        assert flips > 0
        assert dv == trainer_mod._sq_diff(new_v, old.V) == flips
        assert dw == trainer_mod._sq_diff(state.W, old.W)
        assert all(np.array_equal(p, packed_pattern(v)) for p, v in zip(bits, new_v, strict=True))
        assert len(b) == 1 and np.array_equal(b[-1], new_u[-1])

    @pytest.mark.parametrize("n", [1, 255, 257, 513, 1999])
    def test_minibatch_train_matches_public_calls_at_any_sample_count(self, n):
        # The init and each epoch's closing pass are taken in 256-column
        # chunks straight into U_h and packed bits: one chunk with padding
        # bits (1, 255), a one-column tail joined to the chunk before it
        # (257, 513), and a short last chunk of 207 columns (1999).  The
        # report rows but the time, and the weights, have the bits of the
        # loop of public calls over whole blocks.
        data = make_cluster_dataset(4, 3, n, make_rng(40 + n))
        shape = NetworkShape((4, 6, 8, 3))
        hp = Hyperparams(tau=0.5, pi=0.2, gamma=0.1, lam=0.01, beta=0.05, L=2, K=2)
        state, report = train(data, shape, hp, rng=make_rng(23), init_scale=0.3, batch_size=64,
                              shuffle_rng=make_rng(22))
        ref_state, rows = _sweep_loop(data, shape, hp, make_rng(23), 0.3, 64, make_rng(22))
        assert [rec.row()[:-1] for rec in report.records] == [
            (k, f, *terms.values(), dw, dv) for k, f, terms, dw, dv in rows]
        for a, b in zip(state.W, ref_state.W, strict=True):
            assert a.tobytes() == b.tobytes()
        assert n == 1 or any(rec.dv > 0.0 for rec in report.records)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("layer", [0, 1])
    def test_forward_pass_names_the_block_a_chunk_overflows(self, layer):
        # Only the columns of the last of three chunks carry input, so only
        # that chunk overflows, at the layer whose weights are huge.
        x = np.zeros((4, 600))
        x[:, 520:] = 1.0
        w = [np.ones((6, 4)), np.ones((5, 6)), np.ones((3, 5))]
        w[layer][:] = 1e308
        with pytest.raises(FloatingPointError, match=rf"U\[{layer}\] contains non-finite"):
            trainer_mod._forward_pass(w, x)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_minibatch_init_that_overflows_raises(self):
        x = np.zeros((4, 600))
        x[:, 520:] = 1e10
        data = Dataset(x, np.eye(3)[:, np.arange(600) % 3])
        with pytest.raises(FloatingPointError, match=r"U\[0\] contains non-finite"):
            train(data, NetworkShape((4, 6, 3)), Hyperparams(K=0), rng=make_rng(35), init_scale=1e300,
                  batch_size=100)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_full_batch_init_that_overflows_raises(self):
        x = np.zeros((4, 600))
        x[:, 520:] = 1e10
        data = Dataset(x, np.eye(3)[:, np.arange(600) % 3])
        with pytest.raises(FloatingPointError, match=r"U\[0\] contains non-finite"):
            train(data, NetworkShape((4, 6, 3)), Hyperparams(K=0), rng=make_rng(35), init_scale=1e300)

    def test_sums_of_squares_form_no_full_size_buffer(self):
        # Every sum of squares is taken one row block at a time: the
        # objective adds at most about two blocks of prox.V_BLOCK entries
        # to its inputs (a step pattern block and its gap to V), and a
        # block motion and a kept square-layer solve about one beside the
        # product the solve hands on, since each difference is squared in
        # its own buffer; squared into a second buffer, each took two.
        # Squaring one 400x1000 difference whole adds 3.2 MB, six blocks.
        data = make_cluster_dataset(30, 5, 1000, make_rng(31))
        state = init_gaussian(NetworkShape((30, 400, 400, 5)), 0.01, make_rng(32), data.X)
        hp = Hyperparams()
        b = trainer_mod._coupling_products(state, data)  # not the U blocks, so upen squares
        moved = state.V[0] + 0.5

        def added(f, *args):
            tracemalloc.start()
            try:
                out = f(*args)
                return out, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        block = prox.V_BLOCK * 8
        _, peak = added(objective_f, state, data, hp, b)
        assert peak <= 2.05 * block, f"objective_f adds {peak / block:.2f} blocks"
        _, peak = added(trainer_mod._sq_motion, moved, state.V[0])
        assert peak <= 1.1 * block, f"_sq_motion adds {peak / block:.2f} blocks"
        (v, wv, _, _), peak = added(solvers.solve_v, state.W[1], state.U[1], packed_pattern(state.U[0]), hp.tau, hp.pi, state.V[0])
        assert v is state.V[0]
        assert peak - wv.nbytes <= 1.35 * block, f"solve_v adds {(peak - wv.nbytes) / block:.2f} blocks"

    def test_tied_output_columns_are_counted(self, caplog):
        # A zero input column gives zero states above it, so all three
        # outputs of its column tie; the four others tie nowhere.
        x = np.zeros((4, 10))
        x[:, :4] = make_rng(33).uniform(0.5, 1.0, (4, 4))
        data = Dataset(x, np.eye(3)[:, np.arange(10) % 3])
        train(data, NetworkShape((4, 6, 3)), Hyperparams(K=0), rng=make_rng(34))
        assert "6 output columns have tied maxima" in caplog.text

    @pytest.mark.parametrize("kw", [dict(batch_size=0), dict(batch_size=-5), dict(batch_size=np.int64(0))])
    def test_batch_size_below_one_rejected(self, tiny_data, kw):
        with pytest.raises(ValueError, match="at least 1"):
            train(tiny_data, NetworkShape((4, 8, 3)), Hyperparams(K=1), rng=make_rng(10), **kw)

    @pytest.mark.parametrize("batch_size", [2.5, 2.0, True])
    def test_non_integer_batch_size_rejected(self, tiny_data, batch_size):
        # A bool is an int to isinstance; batch_size=True would train with batch 1.
        with pytest.raises(ValueError, match="must be an integer"):
            train(tiny_data, NetworkShape((4, 8, 3)), Hyperparams(K=1), rng=make_rng(10), batch_size=batch_size)

    @pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
    def test_bad_early_stop_tol_rejected(self, tiny_data, tol):
        with pytest.raises(ValueError, match="early_stop_tol must be finite and nonnegative"):
            train(tiny_data, NetworkShape((4, 8, 3)), Hyperparams(K=1), rng=make_rng(10), early_stop_tol=tol)

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
        assert state.U == state.V == []
        for a, b in zip(state.W, ref.W, strict=True):
            assert np.array_equal(a, b)

    def test_bit_identical_across_runs(self, tiny_data):
        shape = NetworkShape((4, 8, 3))
        hp = theory_hp(K=5)
        s1, r1 = train(tiny_data, shape, hp, rng=make_rng(12))
        s2, r2 = train(tiny_data, shape, hp, rng=make_rng(12))
        for a, b in zip(s1.W, s2.W, strict=True):
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


def _recomputed_sums_loop(data, shape, hp, rng):
    """Full-batch ``train`` with every sum taken afresh: each sweep runs on
    a state that keeps its ``U`` blocks float, as a mini-batch sweep runs,
    and each row's terms come from ``objective_f`` over that float state,
    its motions from ``_sq_diff`` against a copy of the last iterate."""
    state = init_gaussian(shape, trainer_mod.DEFAULT_INIT_SCALE, rng, data.X)
    b = state.U
    f, terms = objective_f(state, data, hp, b)
    rows = [(0, f, *terms.values(), 0.0, 0.0)]
    for k in range(1, hp.K + 1):
        old = state.copy()
        b = trainer_mod._sweep(state, data, hp, False, b)
        b[0] = state.W[0] @ data.X
        f, terms = objective_f(state, data, hp, b)
        rows.append((k, f, *terms.values(),
                     trainer_mod._sq_diff(state.W, old.W), trainer_mod._sq_diff(state.V, old.V)))
    return state, rows


def _witness_train_split():
    images, labels = make_synthetic_images(3000, 10, make_rng(606))
    return to_dataset(images[:2000], labels[:2000], 10)


class TestSumsTakenOnce:
    # A full-batch sweep takes each coupling sum once: where a square
    # layer's solve keeps its start, the solve's check has summed both of
    # that layer's terms, and the sweep sums the check's column sums.  The
    # report and the weights must keep every bit of a run that takes every
    # sum afresh, in the regime where the reuse engages (the reference
    # constants: every start and every target kept) and in two where it
    # does not: the step prox changes entries and CG iterates on the
    # square layer (entrywise), and the learning regime in full batch
    # (witness), where every solve iterates.
    @pytest.mark.parametrize("regime", ["kept", "entrywise", "witness"])
    def test_reused_sums_keep_every_bit(self, regime, monkeypatch):
        if regime == "witness":
            data, shape = _witness_train_split(), NetworkShape((784, 20, 20, 10))
            hp = Hyperparams(tau=1.0, pi=1e-3, gamma=1e-8, lam=0.0, beta=0.00072, L=5, K=3)
        else:
            data, shape = make_cluster_dataset(30, 5, 200, make_rng(31)), NetworkShape((30, 60, 60, 5))
            hp = Hyperparams(K=4) if regime == "kept" else Hyperparams(
                tau=0.5, pi=0.2, gamma=0.1, lam=0.01, beta=0.05, L=2, K=4)
        gaps, residuals = [], []
        step_gap, settle = trainer_mod._sq_step_gap, trainer_mod._settle_u

        def spy_gap(v, u):
            gaps.append(v.shape)
            return step_gap(v, u)

        def spy_settle(state, i, wv, upen, e2=None, bits=None):
            residuals.append(e2 is not None)
            return settle(state, i, wv, upen, e2, bits)

        monkeypatch.setattr(trainer_mod, "_sq_step_gap", spy_gap)
        monkeypatch.setattr(trainer_mod, "_settle_u", spy_settle)
        state, report = train(data, shape, hp, rng=make_rng(32))
        monkeypatch.undo()
        ref_state, rows = _recomputed_sums_loop(data, shape, hp, make_rng(32))
        assert [rec.row()[:-1] for rec in report.records] == rows
        for a, b in zip(state.W, ref_state.W, strict=True):
            assert a.tobytes() == b.tobytes()
        # The square layer's vpen and the upen of the layer above it come
        # from the check in every sweep of the kept regime, and nowhere else.
        reused = regime == "kept"
        assert len(gaps) == hp.K * (shape.h - 1) - reused * hp.K
        assert sum(residuals) == reused * hp.K and len(residuals) == hp.K * shape.h


    def test_reused_layer_sums_keep_every_bit(self, monkeypatch):
        # Layer by layer, where the check's sums are not zero: every V entry
        # sits up to 1e-12 off the forward pass, so the kept square layer's
        # V_0 has a gap to step(U_0), and U_1 a residual against W_1 V_0.
        # Two sweeps, the second from the packed state, against the same
        # sweeps over a float twin summed by the objective's kernels.
        data = make_cluster_dataset(30, 5, 200, make_rng(31))
        state = init_gaussian(NetworkShape((30, 60, 60, 5)), 0.01, make_rng(32), data.X)
        for v in state.V:
            v += make_rng(36).uniform(-1e-12, 1e-12, v.shape)
        ref = state.copy()
        gaps, step_gap = [], trainer_mod._sq_step_gap

        def spy_gap(v, u):
            gaps.append(v.shape)
            return step_gap(v, u)

        b, b_ref = state.U, ref.U
        for _ in range(2):
            monkeypatch.setattr(trainer_mod, "_sq_step_gap", spy_gap)
            _, _, b, (upen, vpen) = bcd_iteration(state, data, Hyperparams(), b=b)
            monkeypatch.undo()
            b_ref = trainer_mod._sweep(ref, data, Hyperparams(), False, b_ref)
            b_ref[0] = ref.W[0] @ data.X
            assert upen == [trainer_mod._sq_motion(u, p) for u, p in zip(ref.U, b_ref)]
            assert vpen == [trainer_mod._sq_step_gap(v, u) for u, v in zip(ref.U, ref.V)]
            assert vpen[0] > 0.0 and upen[1] > 0.0
        assert len(gaps) == 2  # the narrow layer's, once a sweep


class TestFiniteChecks:
    # A run scans its blocks for a non-finite entry only when a sum it
    # takes anyway is not finite: upen for a U block, dW and dV for the
    # weights and states.  One NaN put into the weight step, the state
    # solve or the step prox must raise FloatingPointError naming the
    # block it names when every block is scanned after every sweep.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("where, call, batch_size, name", [
        ("pgm", 1, None, "W[2]"),
        ("pgm", 2, None, "W[1]"),
        ("pgm", 3, None, "W[0]"),
        ("pgm", 4, None, "W[2]"),
        ("pgm", 3, 50, "U[0]"),
        ("cg_solve", 1, None, "V[1]"),
        ("prox_step_matrix", 1, None, "U[1]"),
        ("prox_step_matrix", 2, None, "U[0]"),
    ])
    def test_one_nan_names_its_block(self, where, call, batch_size, name, monkeypatch):
        module = solvers if where == "cg_solve" else trainer_mod
        real = getattr(module, where)
        calls = []

        def poisoned(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append(where)
            if len(calls) == call:
                first = out[0] if where == "cg_solve" else out
                first = first.copy()
                first.flat[0] = np.nan
                out = (first, out[1]) if where == "cg_solve" else first
            return out

        monkeypatch.setattr(module, where, poisoned)
        data = make_cluster_dataset(30, 5, 200, make_rng(31))
        with pytest.raises(FloatingPointError, match=rf"^{re.escape(name)} contains non-finite"):
            train(data, NetworkShape((30, 60, 60, 5)), Hyperparams(K=2), rng=make_rng(32),
                  batch_size=batch_size, shuffle_rng=make_rng(33))
        assert len(calls) >= call

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sums_that_overflow_on_finite_entries_pass(self, tiny_data, monkeypatch):
        # The W_0 step moves every entry by 1e200: each entry stays finite,
        # but dW, upen_0 and frob overflow, so the blocks are scanned and
        # nothing is found.
        real = trainer_mod.pgm

        def far(u, v, w0, *args):
            out = real(u, v, w0, *args)
            return out + 1e200 if v.shape[1] == tiny_data.X.shape[0] else out

        monkeypatch.setattr(trainer_mod, "pgm", far)
        state, report = train(tiny_data, NetworkShape((4, 6, 3)), Hyperparams(K=1), rng=make_rng(34))
        last = report.records[-1]
        assert last.dw == last.upen == last.frob == np.inf
        assert all(np.isfinite(w).all() for w in state.W)


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
