"""The paper's three impossibility arguments, pinned world by world.

Each argument is a handful of concrete executions ("worlds") whose local
views must line up. These pins were read once and are held constant: per
world an :class:`~repro.workloads.OrderHasher` digest of the whole trace,
a SHA-256 over every process's local view, and who finished the round (the
§4.1 separation) or who committed what, in decision order (the agreement
arguments); per configuration the verdict. Every world's delays are
constants, so the seed moves nothing: each configuration is pinned once
and checked on several seeds.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.agreement import (
    commits,
    strong_validity_impossibility,
    vwa_rb_impossibility,
)
from repro.core.separations import round_finishers, srb_separation
from repro.workloads import OrderHasher

# (n, f) -> world -> (order digest, views digest, finished the round)
SEPARATION_PINS = {
    (6, 2): {
        "scenario1": ("bd111280d5d01124", "c0f87afe6a87f802", [0, 1, 2, 3, 5]),
        "scenario2": ("21e0bbff62b67b9a", "167e517f4a8b4a7a", [0, 1, 2, 3, 4]),
        "scenario3": ("28c09ddfe3be7ff0", "ccbb7189ee88d9e3",
                      [0, 1, 2, 3, 4, 5]),
    },
    (7, 2): {
        "scenario1": ("602824361f1e2bbd", "152eff2181f0e6d6",
                      [0, 1, 2, 3, 4, 6]),
        "scenario2": ("9dd8ba9dd6272dcb", "0e5dbc85925ec7d9",
                      [0, 1, 2, 3, 4, 5]),
        "scenario3": ("aa1cd1cb5a6e6970", "7b830581bf20c3dc",
                      [0, 1, 2, 3, 4, 5, 6]),
    },
    (9, 3): {
        "scenario1": ("156230e21e56f40b", "61831d44d4d87852",
                      [0, 1, 2, 3, 4, 5, 7, 8]),
        "scenario2": ("aed1ad6177ff8bc2", "20e02d1d4785d7b8",
                      [0, 1, 2, 3, 4, 5, 6]),
        "scenario3": ("7971ac0f4c9c3876", "c822ea847ba48a79",
                      [0, 1, 2, 3, 4, 5, 6, 7, 8]),
    },
}

# f -> world -> (order digest, views digest, commits in decision order)
VWA_PINS = {
    1: {
        "world1": ("a9aad6c65a5b86ce", "c17e746b1a3b066b", [(0, 0)]),
        "world2": ("c91e98cec05068e3", "3776c4eed3746b8e", [(0, 0), (1, 0)]),
        "world3": ("2d120f440cc203cd", "1d4479bdb024b450", [(1, 1)]),
        "world4": ("c91e98cec05068e3", "f024c10a9ab60983", [(0, 1), (1, 1)]),
        "world5": ("c91e98cec05068e3", "b7a12cf4ae220ec7", [(0, 0), (1, 1)]),
    },
    2: {
        "world1": ("3dfa7ff4c9227a30", "18b6cfd5f1f5c63b", [(0, 0), (1, 0)]),
        "world2": ("fe4e7f2de2a2a790", "2c18a5b541ffeb0f",
                   [(0, 0), (1, 0), (2, 0), (3, 0)]),
        "world3": ("471521da7565f2c3", "7b76ba71a8cad0d2", [(2, 1), (3, 1)]),
        "world4": ("fe4e7f2de2a2a790", "893f06b262c218b0",
                   [(0, 1), (1, 1), (2, 1), (3, 1)]),
        "world5": ("fe4e7f2de2a2a790", "66a99d8c7fc149b0",
                   [(0, 0), (1, 0), (2, 1), (3, 1)]),
    },
    3: {
        "world1": ("ce105fb99466186c", "2b6caaced2c58afe",
                   [(0, 0), (1, 0), (2, 0)]),
        "world2": ("f4ab7b74eb3026f1", "736244cc3b2cf0bd",
                   [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0)]),
        "world3": ("08b66223d65d9af6", "5d25994d9c347198",
                   [(3, 1), (4, 1), (5, 1)]),
        "world4": ("f4ab7b74eb3026f1", "736444ecc036a716",
                   [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1)]),
        "world5": ("f4ab7b74eb3026f1", "e5d53eef35c39da6",
                   [(0, 0), (1, 0), (2, 0), (3, 1), (4, 1), (5, 1)]),
    },
}

# world -> (order digest, views digest, commits in decision order); n = 3
STRONG_PINS = {
    "world1": ("f19d651b6439f1e4", "bebcb6fb1414dfb9", [(0, 0), (2, 0)]),
    "world2": ("f19d651b6439f1e4", "b7a7314a33add4d6", [(1, 1), (2, 1)]),
    "world3": ("1b7b2cbfd50dfdc6", "7f8cd319afa7553b", [(0, 0), (1, 1)]),
}


def _order_digest(sim) -> str:
    hasher = OrderHasher()
    sim.trace.replay_into(hasher)
    return hasher.hexdigest()[:16]


def _views_digest(sim) -> str:
    views = tuple(sim.trace.local_view(pid) for pid in range(sim.n))
    return hashlib.sha256(repr(views).encode()).hexdigest()[:16]


def _pins(worlds) -> dict:
    return {
        name: (_order_digest(sim), _views_digest(sim), outcome)
        for name, (sim, outcome) in worlds.items()
    }


def separation_worlds(n, f, seed):
    out = srb_separation(n, f).run(seed)
    worlds = {
        name: (sim, sorted(round_finishers(sim)))
        for name, sim in out.worlds.items()
    }
    return out.holds, worlds


def vwa_worlds(f, seed):
    out = vwa_rb_impossibility(f).run(seed)
    worlds = {
        name: (sim, list(commits(sim).items()))
        for name, sim in out.worlds.items()
    }
    return out.holds, worlds


def strong_worlds(seed):
    out = strong_validity_impossibility().run(seed)
    worlds = {
        name: (sim, list(commits(sim).items()))
        for name, sim in out.worlds.items()
    }
    return out.holds, worlds


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n,f", sorted(SEPARATION_PINS))
def test_separation_worlds_pinned(n, f, seed):
    holds, worlds = separation_worlds(n, f, seed)
    assert holds
    assert _pins(worlds) == SEPARATION_PINS[(n, f)]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("f", sorted(VWA_PINS))
def test_vwa_worlds_pinned(f, seed):
    holds, worlds = vwa_worlds(f, seed)
    assert holds
    assert _pins(worlds) == VWA_PINS[f]


@pytest.mark.parametrize("seed", range(8))
def test_strong_validity_worlds_pinned(seed):
    holds, worlds = strong_worlds(seed)
    assert holds
    assert _pins(worlds) == STRONG_PINS
