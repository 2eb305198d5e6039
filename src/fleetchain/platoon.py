"""Three-truck convoy rollout: travel times and cumulated emissions.

Two scenarios share one densified trajectory.  In the connected scenario the
convoy drives the speed profile scaled by a cruise uplift factor and each
position gets a drag-derived emission discount; followers track the leader
exactly, so per-truck travel times coincide.  In the not-connected scenario
each truck drives independently with seeded multiplicative speed noise and
no discounts.

Every rollout reads the ``path_profile`` that imputation recorded on the
trajectory, so the rollouts of one calibration or scenario pair compute no
distances.

Emission rates follow a quadratic in speed.  By default the reported
per-truck emission figure is the cumulated amount divided by travel time
(a time-averaged rate); pass ``cumulative=True`` for the raw total.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .impute import ImputedTrajectory

ROLE_LEADER = "leader"
ROLE_FOLLOWER = "follower"
ROLE_INDEPENDENT = "independent"
_ROLES = (ROLE_LEADER, ROLE_FOLLOWER, ROLE_INDEPENDENT)

SCENARIO_CONNECTED = "connected"
SCENARIO_NOT_CONNECTED = "not_connected"

# minimum rollout speed; keeps a stop in the profile from stalling the march
_CRAWL_MPS = 0.1


class CalibrationError(ValueError):
    pass


@dataclass(frozen=True)
class TruckSpec:
    """One truck in a three-vehicle convoy."""

    id: str
    role: str
    position_in_platoon: int

    def __post_init__(self) -> None:
        if self.role not in _ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if not 1 <= self.position_in_platoon <= 3:
            raise ValueError(f"position_in_platoon must be 1..3, got {self.position_in_platoon}")
        if self.role == ROLE_LEADER and self.position_in_platoon != 1:
            raise ValueError("leader must be at position 1")
        if self.role == ROLE_FOLLOWER and self.position_in_platoon < 2:
            raise ValueError("followers must be at position >= 2")


@dataclass(frozen=True)
class PlatoonConfig:
    """Scenario knobs; ``connected`` selects which branch a rollout takes."""

    connected: bool = True
    speed_factor_connected: float = 1.21
    drag_reduction: tuple[float, float, float] = (0.66, 0.63, 0.60)
    step_s: float = 1.0
    noise_range: tuple[float, float] = (0.9, 1.0)

    def __post_init__(self) -> None:
        if not self.speed_factor_connected > 0.0:
            raise ValueError("speed_factor_connected must be > 0")
        if not self.step_s > 0.0:
            raise ValueError("step_s must be > 0")
        if len(self.drag_reduction) != 3:
            raise ValueError("drag_reduction needs one factor per position")
        for f in self.drag_reduction:
            if not 0.0 < f <= 1.0:
                raise ValueError(f"drag_reduction factors must be in (0, 1], got {f}")
        d1, d2, d3 = self.drag_reduction
        if not (d1 >= d2 >= d3):
            raise ValueError("drag_reduction must not increase toward the tail")
        lo, hi = self.noise_range
        if not 0.0 < lo <= hi:
            raise ValueError(f"noise_range must satisfy 0 < lo <= hi, got {self.noise_range}")


@dataclass(frozen=True)
class EmissionModel:
    """Quadratic emission rate e(v) = c0 + c1*v + c2*v^2 [mg/s], v in m/s."""

    c0: float = 20.0
    c1: float = 1.5
    c2: float = 0.05
    idle_floor: float = 20.0

    def __post_init__(self) -> None:
        if self.idle_floor < 0.0:
            raise ValueError("idle_floor must be >= 0")

    def rate_mg_s(self, v_mps: float) -> float:
        return max(self.c0 + self.c1 * v_mps + self.c2 * v_mps * v_mps, self.idle_floor)


@dataclass(frozen=True)
class TruckResult:
    travel_time_s: float
    emissions: float


@dataclass(frozen=True)
class EfficiencyReport:
    """Per-truck outcomes of one scenario on one trip."""

    scenario: str
    route_label: str
    trip_id: str
    per_truck: tuple[tuple[str, TruckResult], ...]
    emissions_sum: float

    def truck_ids(self) -> list[str]:
        return [tid for tid, _ in self.per_truck]

    def result(self, truck_id: str) -> TruckResult:
        for tid, res in self.per_truck:
            if tid == truck_id:
                return res
        raise KeyError(truck_id)

    def mean_travel_time_s(self) -> float:
        return sum(r.travel_time_s for _, r in self.per_truck) / len(self.per_truck)


def platoon_trucks() -> tuple[TruckSpec, TruckSpec, TruckSpec]:
    """Connected convoy: one leader, two followers."""
    return (
        TruckSpec("SAL.Tr1", ROLE_LEADER, 1),
        TruckSpec("AF.Tr2", ROLE_FOLLOWER, 2),
        TruckSpec("AF.Tr3", ROLE_FOLLOWER, 3),
    )


def conventional_trucks() -> tuple[TruckSpec, TruckSpec, TruckSpec]:
    """Same three vehicles driving independently."""
    return (
        TruckSpec("Tr1", ROLE_INDEPENDENT, 1),
        TruckSpec("Tr2", ROLE_INDEPENDENT, 2),
        TruckSpec("Tr3", ROLE_INDEPENDENT, 3),
    )


def simulate_convoy(
    trajectory: ImputedTrajectory,
    trucks: Sequence[TruckSpec],
    cfg: PlatoonConfig,
    em: EmissionModel,
    *,
    seed: int = 0,
    route_label: str = "",
    cumulative: bool = False,
) -> EfficiencyReport:
    """Fixed-step kinematic rollout of three trucks along the trajectory.

    Travel time is quantized to whole steps.  Noise draws in the
    not-connected branch come from a per-truck stream derived from ``seed``,
    so reports are reproducible and trucks are mutually independent.
    """
    if len(trucks) != 3:
        raise ValueError(f"expected 3 trucks, got {len(trucks)}")
    cum, speeds = trajectory.path_profile
    total = cum[-1]
    if total <= 0.0:
        raise ValueError("trajectory has zero path length")
    n_last = len(cum) - 1

    results = []
    for truck in trucks:
        rng = random.Random(f"{seed}:{cfg.connected}:{truck.id}")
        drag = cfg.drag_reduction[truck.position_in_platoon - 1] if cfg.connected else 1.0
        s = 0.0
        steps = 0
        emitted = 0.0
        while s < total:
            i = bisect_right(cum, s) - 1
            v = speeds[min(i, n_last)]
            if cfg.connected:
                v *= cfg.speed_factor_connected
            else:
                v *= rng.uniform(*cfg.noise_range)
            v = max(v, _CRAWL_MPS)
            emitted += em.rate_mg_s(v) * drag * cfg.step_s
            s += v * cfg.step_s
            steps += 1
        travel_time = steps * cfg.step_s
        value = emitted if cumulative else emitted / travel_time
        results.append((truck.id, TruckResult(travel_time_s=travel_time, emissions=value)))

    return EfficiencyReport(
        scenario=SCENARIO_CONNECTED if cfg.connected else SCENARIO_NOT_CONNECTED,
        route_label=route_label,
        trip_id=trajectory.trip_id,
        per_truck=tuple(results),
        emissions_sum=sum(r.emissions for _, r in results),
    )


def run_scenarios(
    trajectory: ImputedTrajectory,
    cfg: PlatoonConfig,
    em: EmissionModel,
    *,
    seed: int = 0,
    route_label: str = "",
    cumulative: bool = False,
) -> tuple[EfficiencyReport, EfficiencyReport]:
    """Connected and not-connected reports for one trajectory."""
    connected = simulate_convoy(
        trajectory,
        platoon_trucks(),
        replace(cfg, connected=True),
        em,
        seed=seed,
        route_label=route_label,
        cumulative=cumulative,
    )
    independent = simulate_convoy(
        trajectory,
        conventional_trucks(),
        replace(cfg, connected=False),
        em,
        seed=seed,
        route_label=route_label,
        cumulative=cumulative,
    )
    return connected, independent


def travel_time_ratio(connected: EfficiencyReport, independent: EfficiencyReport) -> float:
    return connected.mean_travel_time_s() / independent.mean_travel_time_s()


def emission_sum_ratio(connected: EfficiencyReport, independent: EfficiencyReport) -> float:
    return connected.emissions_sum / independent.emissions_sum


@dataclass(frozen=True)
class CalibrationTargets:
    """Desired connected / not-connected outcome ratios."""

    travel_time_ratio: float
    emission_sum_ratio: float

    def __post_init__(self) -> None:
        for name, v in (
            ("travel_time_ratio", self.travel_time_ratio),
            ("emission_sum_ratio", self.emission_sum_ratio),
        ):
            if not 0.0 < v <= 1.0:
                raise CalibrationError(
                    f"{name} must be in (0, 1]; connected mode cannot be slower "
                    f"or dirtier than the baseline (got {v})"
                )


CALIBRATION_TOLERANCE = 0.02


def calibrate(
    trajectory: ImputedTrajectory,
    cfg: PlatoonConfig,
    em: EmissionModel,
    targets: CalibrationTargets,
    *,
    seed: int = 0,
) -> PlatoonConfig:
    """Fit the speed uplift and drag discounts to the target ratios.

    The travel-time ratio is monotone in the speed factor, so a bisection
    line search pins it first.  The emission-sum ratio is linear in each
    drag factor, so the factors are slid along the line between the
    configured triple and the identity triple (1, 1, 1) and the blend
    solves in closed form; target ratios of 1.0 therefore return identity
    factors.  Both achieved ratios are re-checked to within
    ``CALIBRATION_TOLERANCE`` before returning.

    Raises:
        CalibrationError: unreachable targets (including a blend that would
            push a factor above 1 or to 0).
    """
    independent = simulate_convoy(
        trajectory,
        conventional_trucks(),
        replace(cfg, connected=False),
        em,
        seed=seed,
    )
    nc_time = independent.mean_travel_time_s()

    def time_ratio_at(sf: float) -> float:
        rep = simulate_convoy(
            trajectory,
            platoon_trucks(),
            replace(cfg, connected=True, speed_factor_connected=sf),
            em,
            seed=seed,
        )
        return rep.mean_travel_time_s() / nc_time

    if targets.travel_time_ratio == 1.0:
        # a no-change target keeps the profile untouched rather than hunting
        # for the smallest factor on the ratio-1 plateau
        speed_factor = 1.0
    else:
        lo, hi = 0.25, 8.0
        if not time_ratio_at(hi) <= targets.travel_time_ratio <= time_ratio_at(lo):
            raise CalibrationError(
                f"travel_time_ratio {targets.travel_time_ratio} not bracketed by "
                f"speed factors in [{lo}, {hi}]"
            )
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            if time_ratio_at(mid) > targets.travel_time_ratio:
                lo = mid
            else:
                hi = mid
        # travel times are quantized to whole steps, so the ratio plateaus;
        # keep the bracket end that never overshoots the target rather than a
        # midpoint that may sit one step past a plateau edge
        speed_factor = hi

    # undiscounted per-truck rates at the fitted speed factor; the reported
    # emission figure is linear in each drag factor, so blending the triple
    # toward (1, 1, 1) solves the target ratio exactly
    undiscounted = simulate_convoy(
        trajectory,
        platoon_trucks(),
        replace(
            cfg,
            connected=True,
            speed_factor_connected=speed_factor,
            drag_reduction=(1.0, 1.0, 1.0),
        ),
        em,
        seed=seed,
    )
    rates = [r.emissions for _, r in undiscounted.per_truck]
    target_sum = targets.emission_sum_ratio * independent.emissions_sum
    span = sum((1.0 - d) * r for d, r in zip(cfg.drag_reduction, rates))
    if span == 0.0:
        drag = cfg.drag_reduction
        if abs(sum(rates) - target_sum) > CALIBRATION_TOLERANCE * target_sum:
            raise CalibrationError(
                "drag factors are pinned at identity and cannot reach "
                f"emission_sum_ratio {targets.emission_sum_ratio}"
            )
    else:
        alpha = (sum(rates) - target_sum) / span
        if -1e-9 < alpha < 0.0:
            alpha = 0.0
        drag = tuple(1.0 - alpha * (1.0 - d) for d in cfg.drag_reduction)
        if any(not 0.0 < f <= 1.0 for f in drag):
            raise CalibrationError(
                f"emission_sum_ratio {targets.emission_sum_ratio} needs drag "
                f"factors outside (0, 1] (blend {alpha:.4f} of {cfg.drag_reduction})"
            )
    calibrated = replace(
        cfg, speed_factor_connected=speed_factor, drag_reduction=drag
    )

    conn, indep = run_scenarios(trajectory, calibrated, em, seed=seed)
    tt = travel_time_ratio(conn, indep)
    es = emission_sum_ratio(conn, indep)
    if abs(tt - targets.travel_time_ratio) > CALIBRATION_TOLERANCE * targets.travel_time_ratio:
        raise CalibrationError(f"travel-time ratio {tt:.4f} missed target {targets.travel_time_ratio}")
    if abs(es - targets.emission_sum_ratio) > CALIBRATION_TOLERANCE * targets.emission_sum_ratio:
        raise CalibrationError(f"emission ratio {es:.4f} missed target {targets.emission_sum_ratio}")
    return calibrated


def report_csv(reports: Iterable[EfficiencyReport]) -> str:
    """CSV rows per truck plus a SUM row per report."""
    lines = ["scenario,route,trip,truck,travel_time_s,emissions"]
    for rep in reports:
        for tid, res in rep.per_truck:
            lines.append(
                f"{rep.scenario},{rep.route_label},{rep.trip_id},{tid},"
                f"{res.travel_time_s:.0f},{res.emissions:.2f}"
            )
        lines.append(
            f"{rep.scenario},{rep.route_label},{rep.trip_id},SUM,,{rep.emissions_sum:.2f}"
        )
    return "\n".join(lines) + "\n"
