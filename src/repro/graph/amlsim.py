"""AML-Sim: an anti-money-laundering transaction-graph simulator.

The paper's fourth dataset is generated by the AMLSim simulator
(Weber et al., arXiv:1812.00076).  That tool is not available offline, so
this module implements the same generative idea from scratch: a
population of accounts produces background payment traffic, and known
laundering *typologies* are planted on top of it:

* **fan-out**   — an originator splits funds across many mule accounts;
* **fan-in**    — many accounts funnel into one collector;
* **cycle**     — funds hop around a ring of accounts over consecutive
  timesteps, returning to the originator;
* **scatter-gather** — fan-out at timestep ``t`` followed by fan-in of
  the same mules into a collector at ``t + Δ``.

Every planted transaction is labeled suspicious, so the dataset supports
both the paper's link-prediction protocol (§6.4) and a node/edge
classification task.  Background traffic uses a Zipf-like activity skew
and per-account persistent partners, giving consecutive snapshots the
substantial topology overlap the graph-difference transfer exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DatasetError
from repro.graph.dtdg import DTDG
from repro.graph.snapshot import GraphSnapshot, canonical_edges

__all__ = ["AMLSimConfig", "AMLSimResult", "generate_amlsim"]


@dataclass(frozen=True)
class AMLSimConfig:
    """Parameters of the AML simulator.

    Attributes
    ----------
    num_accounts:
        Number of accounts (graph vertices).
    num_timesteps:
        Number of snapshots ``T``.
    background_per_step:
        Background (legitimate) transactions per timestep.
    partner_persistence:
        Probability that a background transaction reuses one of the
        payer's established partners instead of a fresh counterparty —
        this is what makes consecutive snapshots overlap.
    num_fan_out / num_fan_in / num_cycles / num_scatter_gather:
        Number of laundering pattern instances planted across the run.
    pattern_size:
        Mules per fan pattern / ring length for cycles.
    seed:
        RNG seed; the whole generation is deterministic given the config.
    """

    num_accounts: int = 1000
    num_timesteps: int = 32
    background_per_step: int = 2000
    partner_persistence: float = 0.7
    num_fan_out: int = 8
    num_fan_in: int = 8
    num_cycles: int = 6
    num_scatter_gather: int = 4
    pattern_size: int = 6
    activity_skew: float = 0.9
    # Regional structure: accounts belong to `num_branches` contiguous
    # branches (bank regions) and background counterparties stay inside
    # the payer's branch with probability `branch_locality`.  Real retail
    # payment graphs are strongly regional, which is exactly what makes
    # partition-aware sharding pay off; laundering typologies ignore
    # branches (mules are recruited anywhere), so planted patterns still
    # cross regions.  The default (0.0) is branch-free and reproduces
    # the pre-locality generator draw-for-draw.
    num_branches: int = 1
    branch_locality: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.num_accounts < self.pattern_size + 2:
            raise DatasetError("num_accounts too small for pattern_size")
        if self.num_timesteps < 3:
            raise DatasetError("AML-Sim needs at least 3 timesteps")
        if not 0.0 <= self.partner_persistence <= 1.0:
            raise DatasetError("partner_persistence must be in [0, 1]")
        if not 0.0 <= self.branch_locality <= 1.0:
            raise DatasetError("branch_locality must be in [0, 1]")
        if self.num_branches < 1:
            raise DatasetError("num_branches must be >= 1")
        if self.branch_locality > 0.0 and \
                self.num_branches > self.num_accounts:
            raise DatasetError("more branches than accounts")


@dataclass
class AMLSimResult:
    """Generated dynamic graph plus ground-truth laundering labels."""

    dtdg: DTDG
    # (t, src, dst) triples of planted suspicious transactions
    suspicious: set = field(default_factory=set)
    # account ids participating in any laundering pattern
    suspicious_accounts: set = field(default_factory=set)

    def account_labels(self) -> np.ndarray:
        labels = np.zeros(self.dtdg.num_vertices, dtype=np.int64)
        for acct in self.suspicious_accounts:
            labels[acct] = 1
        return labels


def generate_amlsim(config: AMLSimConfig) -> AMLSimResult:
    """Run the simulator and return the DTDG with laundering labels."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    n, t_max = config.num_accounts, config.num_timesteps

    weights = 1.0 / np.arange(1, n + 1) ** config.activity_skew
    activity = weights / weights.sum()

    # Established partners: a sparse persistent relation seeded up-front.
    # With branch structure, most partners come from the payer's own
    # contiguous branch range (vertex id -> branch is id * B // n).
    n_partners = max(2, config.background_per_step // max(1, n // 8))
    local = config.branch_locality > 0.0 and config.num_branches > 1
    if local:
        nb = config.num_branches
        branch_lo = (np.arange(n) * nb // n) * n // nb
        branch_hi = ((np.arange(n) * nb // n) + 1) * n // nb
        partners = {}
        for u in range(n):
            glob = rng.choice(n, size=n_partners, replace=True)
            in_branch = branch_lo[u] + rng.integers(
                0, branch_hi[u] - branch_lo[u], size=n_partners)
            pick = rng.random(n_partners) < config.branch_locality
            partners[u] = np.where(pick, in_branch, glob)
    else:
        partners = {u: rng.choice(n, size=n_partners, replace=True)
                    for u in range(n)}

    per_step_edges: list[list[tuple[int, int]]] = [[] for _ in range(t_max)]
    suspicious: set = set()
    susp_accounts: set = set()

    # ---- background traffic -------------------------------------------------
    # Recurring relationships repeat the *same* transactions step after
    # step (salaries, subscriptions, standing orders): a persistent
    # fraction of the previous step's background edges carries over
    # verbatim, which is what gives real transaction graphs the high
    # consecutive-snapshot overlap the GD transfer exploits (paper §3.2).
    prev_background: list[tuple[int, int]] = []
    for t in range(t_max):
        step: list[tuple[int, int]] = []
        n_keep = int(round(config.partner_persistence *
                           len(prev_background)))
        if n_keep:
            keep_idx = rng.choice(len(prev_background), size=n_keep,
                                  replace=False)
            step.extend(prev_background[i] for i in keep_idx)
        n_fresh = config.background_per_step - len(step)
        if n_fresh > 0:
            payers = rng.choice(n, size=n_fresh, p=activity)
            reuse = rng.random(n_fresh) < config.partner_persistence
            fresh = rng.choice(n, size=n_fresh, p=activity)
            if local:
                # fresh counterparties also prefer the payer's branch
                stay = rng.random(n_fresh) < config.branch_locality
                lo = branch_lo[payers]
                span = branch_hi[payers] - lo
                in_branch = lo + (rng.random(n_fresh) *
                                  span).astype(np.int64)
                fresh = np.where(stay, in_branch, fresh)
            for i, u in enumerate(payers):
                v = partners[int(u)][rng.integers(n_partners)] if reuse[i] \
                    else fresh[i]
                if u != v:
                    step.append((int(u), int(v)))
        per_step_edges[t].extend(step)
        prev_background = step

    # ---- laundering typologies ----------------------------------------------
    def pick_accounts(k: int) -> np.ndarray:
        return rng.choice(n, size=k, replace=False)

    def plant(t: int, u: int, v: int) -> None:
        if u == v:
            return
        per_step_edges[t].append((u, v))
        suspicious.add((t, u, v))
        susp_accounts.update((u, v))

    for _ in range(config.num_fan_out):
        t = int(rng.integers(0, t_max))
        ids = pick_accounts(config.pattern_size + 1)
        origin, mules = int(ids[0]), ids[1:]
        for m in mules:
            plant(t, origin, int(m))

    for _ in range(config.num_fan_in):
        t = int(rng.integers(0, t_max))
        ids = pick_accounts(config.pattern_size + 1)
        collector, sources = int(ids[0]), ids[1:]
        for s in sources:
            plant(t, int(s), collector)

    for _ in range(config.num_cycles):
        t0 = int(rng.integers(0, max(1, t_max - config.pattern_size)))
        ring = pick_accounts(config.pattern_size)
        for hop in range(config.pattern_size):
            t = min(t0 + hop, t_max - 1)
            u = int(ring[hop])
            v = int(ring[(hop + 1) % config.pattern_size])
            plant(t, u, v)

    for _ in range(config.num_scatter_gather):
        t0 = int(rng.integers(0, t_max - 2))
        ids = pick_accounts(config.pattern_size + 2)
        origin, collector = int(ids[0]), int(ids[1])
        mules = ids[2:]
        for m in mules:
            plant(t0, origin, int(m))
            plant(t0 + 2, int(m), collector)

    snaps = [GraphSnapshot(n, canonical_edges(
                 np.asarray(edges, dtype=np.int64).reshape(-1, 2)))
             for edges in per_step_edges]
    dtdg = DTDG(snaps, name="amlsim")
    return AMLSimResult(dtdg=dtdg, suspicious=suspicious,
                        suspicious_accounts=susp_accounts)
