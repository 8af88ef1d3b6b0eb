"""Seeded input generation for the benchmark workloads.

Every workload draws one fixed enterprise *population* from its seed:
hosts with their DHCP address plan, the sites each host browses, the
hosts running each benign periodic service, and the implant campaigns
with their DGA domains.  Each (host, destination) pair then gets one
continuous trace over the whole window, which is cut into days.  One
population across all days matters for ``monthly``: an hour-scale
beacon only shows when the same pair is followed for weeks, and
re-simulating each day would redraw the sites and the DGA domains.

Pair counts are fixed by the shape, not drawn: popular sites are dealt
round-robin to hosts (enough sources to be whitelisted), each host owns
a few private "tail" sites (one source, so they reach detection), and
niche services and implants get a fixed number of adopters.  Only the
traces are random, so throughput varies little from seed to seed.

The generators come from :mod:`repro.synthetic`: browsing sessions and
periodic services (``background``), implant behaviours
(``enterprise.ImplantSpec`` over the ``botnet`` catalogue), DGA domains
(``dga``) and URLs (``urls``).  The ground truth is written next to the
inputs as ``truth.json``.

Run ``python3 -m perfbench.workloads --workload W --seed N --out DIR``
from the checkout root with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.timeseries import ActivitySummary
from repro.jobs.summary_store import SummaryStore
from repro.synthetic.background import DEFAULT_SERVICES, browsing_trace
from repro.synthetic.dga import generate_pool
from repro.synthetic.enterprise import ImplantSpec
from repro.synthetic.urls import browsing_urls, gate_url

DAY = 86_400.0
HOUR = 3_600.0

#: Services with at least this adoption run on every host and are
#: whitelisted by popularity.  The others are niche: a fixed handful of
#: adopters, too few to be whitelisted, so they reach detection as the
#: paper's benign periodic class.
POPULAR_ADOPTION = 0.5

#: Browsing sessions per second on a popular site.
POPULAR_SESSION_RATE = 1.0 / HOUR

#: URLs kept per pair-day in the monthly store, as the log fold keeps.
MAX_URLS = 64

_SITE_WORDS = (
    "news", "shop", "video", "photo", "travel", "forum", "wiki", "code",
    "cook", "sport", "music", "cloud", "bank", "auto", "home", "art",
    "game", "learn", "health", "map", "social", "job", "book", "film",
)

#: Implants a daily pass at 1 s granularity can see.
SHORT_IMPLANTS: Tuple[ImplantSpec, ...] = (
    ImplantSpec("zbot-fast", "zeus", n_infected=2, period=63.0),
    ImplantSpec("zbot-slow", "zeus", n_infected=1, period=180.0),
    ImplantSpec("tdss", "tdss", n_infected=1),
    ImplantSpec("zeroaccess", "zeroaccess", n_infected=1),
    ImplantSpec("hexgate", "zeus", n_infected=1, period=901.0,
                dga_family="hex"),
)

#: Implants with periods of an hour or more, which only a monthly
#: window at 600 s granularity resolves.
LONG_IMPLANTS: Tuple[ImplantSpec, ...] = (
    ImplantSpec("apt-2h", "apt", n_infected=1, period=2 * HOUR),
    ImplantSpec("apt-6h", "apt", n_infected=1, period=6 * HOUR),
    ImplantSpec("zbot-hourly", "zeus", n_infected=2, period=HOUR),
    ImplantSpec("conficker", "conficker", n_infected=1),
)


@dataclass(frozen=True)
class Shape:
    """Size and composition of one workload's enterprise window."""

    hosts: int
    days: int
    popular_sites: int
    popular_per_host: int
    tail_per_host: int
    niche_adopters: int = 2
    #: Tail sites are browsed sparsely: a few sessions a day.
    tail_session_rate: float = 4.0 / DAY
    implants: Tuple[ImplantSpec, ...] = SHORT_IMPLANTS


#: The shapes the benchmark runs, sized so one batch takes 3-7 s on a
#: 2-core host.  Daily tails are browsed hourly: their spans then fill
#: the day, so the FFT lengths behind the cold permutation thresholds
#: (most of a daily batch) vary little from seed to seed.  Monthly tails
#: are sparse, so the mixture fits (most of a monthly batch) are spread
#: over many small pairs rather than a few large ones; 32 hosts give
#: about 100 of them, which keeps the EM iterations per batch within a
#: few percent from seed to seed.
SHAPES: Dict[str, Shape] = {
    "daily": Shape(hosts=10, days=1, popular_sites=10, popular_per_host=4,
                   tail_per_host=1, niche_adopters=1,
                   tail_session_rate=1.0 / HOUR),
    "monthly": Shape(hosts=32, days=30, popular_sites=8, popular_per_host=3,
                     tail_per_host=3, implants=LONG_IMPLANTS),
    "backfill": Shape(hosts=100, days=4, popular_sites=50, popular_per_host=5,
                      tail_per_host=2),
}


@dataclass
class _Pair:
    """One (host, destination) pair with its trace over the window."""

    host: int
    destination: str
    timestamps: np.ndarray
    urls: List[str]
    url_index: np.ndarray


def _mac(index: int) -> str:
    return "02:00:%02x:%02x:%02x:%02x" % (
        (index >> 24) & 0xFF, (index >> 16) & 0xFF,
        (index >> 8) & 0xFF, index & 0xFF,
    )


def _site_names(count: int, rng: np.random.Generator, taken: set) -> List[str]:
    names: List[str] = []
    while len(names) < count:
        a, b = rng.integers(0, len(_SITE_WORDS), size=2)
        name = f"www.{_SITE_WORDS[a]}{_SITE_WORDS[b]}{int(rng.integers(1, 1000))}.com"
        if name not in taken:
            taken.add(name)
            names.append(name)
    return names


def _ip_plan(shape: Shape, rng: np.random.Generator) -> List[List[str]]:
    """Per host, the address it holds on each day (DHCP churn)."""
    plan = []
    next_ip = 1
    for _host in range(shape.hosts):
        ips: List[str] = []
        for _day in range(shape.days):
            if not ips or rng.random() < 0.2:
                ips.append("10.%d.%d.%d" % (
                    next_ip >> 16, (next_ip >> 8) & 0xFF, next_ip & 0xFF))
                next_ip += 1
            else:
                ips.append(ips[-1])
        plan.append(ips)
    return plan


class Population:
    """One seeded enterprise window: its pairs, traces and ground truth."""

    def __init__(self, shape: Shape, seed: int) -> None:
        self.shape = shape
        self.seed = seed
        layout, browsing, periodic, addresses = (
            np.random.default_rng(stream)
            for stream in np.random.SeedSequence(seed).spawn(4)
        )
        window = shape.days * DAY
        self.ips = _ip_plan(shape, addresses)
        self.pairs: List[_Pair] = []

        taken: set = set()
        popular = _site_names(shape.popular_sites, layout, taken)
        for slot, host in enumerate(layout.permutation(shape.hosts).tolist()):
            sites = [
                (popular[(slot * shape.popular_per_host + j) % len(popular)],
                 POPULAR_SESSION_RATE)
                for j in range(shape.popular_per_host)
            ]
            sites += [
                (site, shape.tail_session_rate)
                for site in _site_names(shape.tail_per_host, layout, taken)
            ]
            for site, rate in sites:
                trace = browsing_trace(window, browsing, session_rate=rate)
                self._add(host, site, trace, browsing_urls(browsing, 8),
                          browsing)

        benign_periodic = set()
        for service in DEFAULT_SERVICES:
            if service.adoption >= POPULAR_ADOPTION:
                adopters = list(range(shape.hosts))
            else:
                adopters = layout.choice(
                    shape.hosts, size=shape.niche_adopters, replace=False
                ).tolist()
            benign_periodic.add(service.domain)
            for host in adopters:
                offset = float(periodic.uniform(0.0, service.period))
                spec = service.beacon_spec(max(window - offset, service.period),
                                           start=offset)
                self._add(host, service.domain, spec.generate(periodic),
                          [service.url_path], periodic)

        malicious: Dict[str, str] = {}
        infected = set()
        for rank, implant in enumerate(shape.implants):
            domain = generate_pool(rank + 1, family=implant.dga_family,
                                   seed=seed + 1)[rank]
            malicious[domain] = implant.name
            victims = layout.choice(shape.hosts, size=implant.n_infected,
                                    replace=False)
            for host in victims.tolist():
                infected.add(_mac(host))
                offset = float(periodic.uniform(0.0, min(window / 4, HOUR)))
                spec = implant.build_spec(window - offset, offset)
                self._add(host, domain, spec.generate(periodic),
                          [gate_url(periodic)], periodic)

        self.truth = {
            "malicious_destinations": sorted(malicious),
            "implant_by_destination": malicious,
            "infected_hosts": sorted(infected),
            "benign_periodic_destinations": sorted(benign_periodic),
        }

    def _add(self, host: int, destination: str, trace: np.ndarray,
             urls: Sequence[str], rng: np.random.Generator) -> None:
        window = self.shape.days * DAY
        trace = np.sort(trace[(trace >= 0.0) & (trace < window)])
        if trace.size == 0:
            return
        self.pairs.append(_Pair(
            host=host,
            destination=destination,
            timestamps=trace,
            urls=list(urls),
            url_index=rng.integers(0, len(urls), size=trace.size),
        ))

    def day_slices(self, day: int) -> List[Tuple[_Pair, slice]]:
        """Each pair's events that fall on ``day``."""
        out = []
        for pair in self.pairs:
            lo, hi = np.searchsorted(pair.timestamps,
                                     [day * DAY, (day + 1) * DAY]).tolist()
            if hi > lo:
                out.append((pair, slice(lo, hi)))
        return out

    def write_day_log(self, day: int, path: Path) -> Tuple[int, int]:
        """Write one day's proxy log (TSV, time-ordered).

        Returns ``(events, pairs)`` for the day.
        """
        slices = self.day_slices(day)
        # Written at millisecond precision; ordered by the written value
        # so the log is time-ordered as the parser reads it back.
        stamps = [np.round(pair.timestamps[part], 3) for pair, part in slices]
        owner = np.concatenate([
            np.full(ts.size, index) for index, ts in enumerate(stamps)
        ])
        offset = np.concatenate([np.arange(ts.size) for ts in stamps])
        ts_all = np.concatenate(stamps)
        order = np.lexsort((offset, owner, ts_all))
        sent = np.random.default_rng([self.seed, day]).integers(
            200, 20_000, size=ts_all.size)
        fields = [
            (_mac(pair.host), self.ips[pair.host][day], pair.destination,
             [pair.urls[i] for i in pair.url_index[part].tolist()])
            for pair, part in slices
        ]
        owner_of = owner.tolist()
        offset_of = offset.tolist()
        lines = []
        for row, ts, byte_count in zip(order.tolist(), ts_all[order].tolist(),
                                       sent.tolist()):
            mac, ip, destination, urls = fields[owner_of[row]]
            lines.append(
                f"{ts:.3f}\t{mac}\t{ip}\t{destination}\t"
                f"{urls[offset_of[row]]}\t200\t{byte_count}\n"
            )
        path.write_text("".join(lines), encoding="utf-8")
        return int(ts_all.size), len(slices)

    def day_summaries(self, day: int) -> List[ActivitySummary]:
        """One day's per-pair summaries at 1 s, as extraction folds them."""
        out = []
        for pair, part in self.day_slices(day):
            urls = [pair.urls[i]
                    for i in pair.url_index[part][:MAX_URLS].tolist()]
            out.append(ActivitySummary.from_timestamps(
                _mac(pair.host), pair.destination, pair.timestamps[part],
                urls=urls,
            ))
        out.sort(key=lambda summary: summary.pair)
        return out

    def distinct_pairs(self) -> int:
        """Pairs with at least one event anywhere in the window."""
        return len({(pair.host, pair.destination) for pair in self.pairs})


def generate(
    workload: str, seed: int, out: Path, shape: Optional[Shape] = None
) -> Path:
    """Write ``workload``'s inputs for ``seed`` into ``out``.

    ``monthly`` gets a summary store pre-filled with one summary set per
    day; ``daily`` and ``backfill`` get one proxy-log file per day.  The
    directory is built under a temporary name and renamed into place,
    so a reader never sees a half-written input set.
    """
    shape = shape or SHAPES[workload]
    out = Path(out)
    staging = out.with_name(out.name + ".partial")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    population = Population(shape, seed)
    truth = dict(population.truth)
    truth.update(workload=workload, seed=seed, shape=asdict(shape),
                 pairs=population.distinct_pairs())
    truth["shape"]["implants"] = [implant.name for implant in shape.implants]
    if workload == "monthly":
        store = SummaryStore(staging / "store")
        truth["pair_days"] = sum(
            store.append_day(day, population.day_summaries(day))
            for day in range(shape.days)
        )
    else:
        logs = staging / "logs"
        logs.mkdir()
        events = pair_days = 0
        for day in range(shape.days):
            n_events, n_pairs = population.write_day_log(
                day, logs / f"day-{day:03d}.tsv")
            events += n_events
            pair_days += n_pairs
        truth.update(events=events, pair_days=pair_days)
    (staging / "truth.json").write_text(
        json.dumps(truth, indent=1, sort_keys=True), encoding="utf-8")
    shutil.rmtree(out, ignore_errors=True)
    staging.rename(out)
    return out


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Generate benchmark inputs.")
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)
