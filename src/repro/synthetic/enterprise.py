"""Whole-enterprise traffic simulation with ground truth.

This is the substitute for the paper's proprietary 35.6 TB proxy-log
corpus: a deterministic generator that emits
:class:`~repro.sources.proxy.ProxyLogRecord` streams for a population
of hosts mixing

- bursty benign browsing over a Zipf-popular site catalogue,
- benign periodic services (update checks, mail polling, tickers),
- malicious implants drawn from the botnet catalogue with DGA domains,

plus DHCP-style IP churn (the paper correlates MACs for exactly this
reason).  Ground truth (which destinations are malicious, which hosts
are infected) is returned alongside the records, which the paper's
evaluation had to approximate with VirusTotal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.synthetic.background import DEFAULT_SERVICES, PeriodicService, browsing_trace
from repro.synthetic.botnet import BOTNET_CATALOGUE
from repro.synthetic.dga import generate_pool
from repro.sources.proxy import ProxyLogRecord
from repro.utils.validation import require, require_positive, require_probability

DAY = 86_400.0


@dataclass(frozen=True)
class ImplantSpec:
    """A malware implant campaign inside the enterprise.

    ``behaviour`` names an entry of
    :data:`repro.synthetic.botnet.BOTNET_CATALOGUE`; ``period`` overrides
    the behaviour's default cadence where the factory supports it
    (Zeus-style).  All ``n_infected`` hosts beacon to the same DGA
    ``domain`` — multi-client destinations are what Table V reports.
    """

    name: str
    behaviour: str
    n_infected: int = 1
    period: Optional[float] = None
    dga_family: str = "random"
    url_path: str = "/gate.php"

    def __post_init__(self) -> None:
        require(self.behaviour in BOTNET_CATALOGUE,
                f"unknown behaviour {self.behaviour!r}; "
                f"choose from {sorted(BOTNET_CATALOGUE)}")
        require(self.n_infected >= 1, "n_infected must be at least 1")

    def build_spec(self, duration: float, start: float):
        """Instantiate the beacon spec for one infected host."""
        import inspect

        factory = BOTNET_CATALOGUE[self.behaviour]
        if self.period is not None:
            if "period" not in inspect.signature(factory).parameters:
                raise ValueError(
                    f"behaviour {self.behaviour!r} has a fixed cadence and "
                    "does not accept a period override"
                )
            return factory(duration, period=self.period, start=start)
        return factory(duration, start=start)


DEFAULT_IMPLANTS: Tuple[ImplantSpec, ...] = (
    ImplantSpec("zbot-fast", "zeus", n_infected=2, period=63.0),
    ImplantSpec("zbot-slow", "zeus", n_infected=1, period=180.0),
    ImplantSpec("tdss", "tdss", n_infected=3),
    ImplantSpec("zeroaccess", "zeroaccess", n_infected=1),
)


@dataclass(frozen=True)
class EnterpriseConfig:
    """Size and composition of the simulated enterprise."""

    n_hosts: int = 50
    n_sites: int = 150
    duration: float = DAY
    start: float = 0.0
    sites_per_host: Tuple[int, int] = (3, 12)
    zipf_exponent: float = 1.2
    session_rate: float = 1.0 / 3600.0
    services: Tuple[PeriodicService, ...] = DEFAULT_SERVICES
    implants: Tuple[ImplantSpec, ...] = DEFAULT_IMPLANTS
    ip_churn_probability: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        require(self.n_hosts >= 1, "n_hosts must be at least 1")
        require(self.n_sites >= 1, "n_sites must be at least 1")
        require_positive(self.duration, "duration")
        require(np.isfinite(self.duration), "duration must be finite")
        require(1 <= self.sites_per_host[0] <= self.sites_per_host[1],
                "sites_per_host must be an increasing positive range")
        require_positive(self.zipf_exponent, "zipf_exponent")
        require_positive(self.session_rate, "session_rate")
        require_probability(self.ip_churn_probability, "ip_churn_probability")


@dataclass(frozen=True)
class GroundTruth:
    """What the simulator knows that the analyst must discover."""

    malicious_destinations: frozenset
    infected_hosts: frozenset
    benign_periodic_destinations: frozenset
    implant_by_destination: Dict[str, ImplantSpec] = field(default_factory=dict)

    def label(self, destination: str) -> int:
        """1 when the destination is malicious, else 0."""
        return 1 if destination in self.malicious_destinations else 0


_SITE_WORDS = (
    "news", "shop", "video", "photo", "travel", "forum", "wiki", "code",
    "cook", "sport", "music", "cloud", "bank", "auto", "home", "art",
    "game", "learn", "health", "map", "mail", "social", "job", "book",
)


def _site_catalogue(n_sites: int, rng: np.random.Generator) -> List[str]:
    """Deterministic catalogue of plausible benign site domains."""
    sites = []
    seen = set()
    while len(sites) < n_sites:
        a, b = rng.integers(0, len(_SITE_WORDS), size=2)
        suffix = int(rng.integers(1, 100))
        domain = f"www.{_SITE_WORDS[a]}{_SITE_WORDS[b]}{suffix}.com"
        if domain not in seen:
            seen.add(domain)
            sites.append(domain)
    return sites


def _mac(index: int) -> str:
    """Stable MAC address for host ``index``."""
    return "02:00:%02x:%02x:%02x:%02x" % (
        (index >> 24) & 0xFF, (index >> 16) & 0xFF,
        (index >> 8) & 0xFF, index & 0xFF,
    )


class EnterpriseSimulator:
    """Generate a labelled proxy-log corpus for one enterprise window."""

    def __init__(self, config: Optional[EnterpriseConfig] = None) -> None:
        self.config = config or EnterpriseConfig()
        self._rng = np.random.default_rng(self.config.seed)

    # -- public API --------------------------------------------------------

    def generate(self) -> Tuple[List[ProxyLogRecord], GroundTruth]:
        """Produce the sorted record stream and its ground truth."""
        cfg = self.config
        rng = self._rng
        hosts = [_mac(i) for i in range(cfg.n_hosts)]
        sites = _site_catalogue(cfg.n_sites, rng)
        ip_plan = self._ip_plan(hosts, rng)

        records: List[ProxyLogRecord] = []
        records.extend(self._browsing_records(hosts, sites, ip_plan, rng))
        benign_periodic = self._service_records(hosts, ip_plan, rng, records)
        truth = self._implant_records(hosts, ip_plan, rng, records, benign_periodic)
        records.sort(key=lambda r: (r.timestamp, r.source_mac, r.destination))
        return records, truth

    # -- internals ----------------------------------------------------------

    def _ip_plan(
        self, hosts: Sequence[str], rng: np.random.Generator
    ) -> Dict[str, List[str]]:
        """Per-host IP address per simulated day (DHCP churn)."""
        cfg = self.config
        n_days = max(1, int(np.ceil(cfg.duration / DAY)))
        plan: Dict[str, List[str]] = {}
        next_ip = [10, 0, 0, 1]

        def allocate() -> str:
            ip = "%d.%d.%d.%d" % tuple(next_ip)
            next_ip[3] += 1
            for pos in (3, 2, 1):
                if next_ip[pos] > 254:
                    next_ip[pos] = 1
                    next_ip[pos - 1] += 1
            return ip

        for host in hosts:
            ips = [allocate()]
            for _ in range(1, n_days):
                if rng.random() < cfg.ip_churn_probability:
                    ips.append(allocate())
                else:
                    ips.append(ips[-1])
            plan[host] = ips
        return plan

    def _ip_for(self, host: str, timestamp: float, ip_plan: Dict[str, List[str]]) -> str:
        day = int((timestamp - self.config.start) // DAY)
        ips = ip_plan[host]
        return ips[min(max(day, 0), len(ips) - 1)]

    def _emit(
        self,
        records: List[ProxyLogRecord],
        host: str,
        destination: str,
        timestamps: np.ndarray,
        ip_plan: Dict[str, List[str]],
        rng: np.random.Generator,
        url,
    ) -> None:
        """Append one record per timestamp.

        ``url`` is either a fixed string or a callable ``rng -> str``
        evaluated per request (browsing paths vary; update endpoints
        do not).
        """
        for ts in timestamps:
            records.append(
                ProxyLogRecord(
                    timestamp=float(ts),
                    source_mac=host,
                    source_ip=self._ip_for(host, float(ts), ip_plan),
                    destination=destination,
                    url=url(rng) if callable(url) else url,
                    status=200,
                    bytes_sent=int(rng.integers(200, 20_000)),
                )
            )

    def _browsing_records(
        self,
        hosts: Sequence[str],
        sites: Sequence[str],
        ip_plan: Dict[str, List[str]],
        rng: np.random.Generator,
    ) -> List[ProxyLogRecord]:
        cfg = self.config
        weights = 1.0 / np.arange(1, len(sites) + 1) ** cfg.zipf_exponent
        weights /= weights.sum()
        records: List[ProxyLogRecord] = []
        low, high = cfg.sites_per_host
        for host in hosts:
            n_pairs = int(rng.integers(low, high + 1))
            chosen = rng.choice(
                len(sites), size=min(n_pairs, len(sites)), replace=False, p=weights
            )
            for site_idx in chosen:
                trace = browsing_trace(
                    cfg.duration, rng,
                    session_rate=cfg.session_rate,
                    start=cfg.start,
                )
                if trace.size == 0:
                    continue
                from repro.synthetic.urls import browsing_url

                self._emit(records, host, sites[site_idx], trace, ip_plan,
                           rng, browsing_url)
        return records

    def _service_records(
        self,
        hosts: Sequence[str],
        ip_plan: Dict[str, List[str]],
        rng: np.random.Generator,
        records: List[ProxyLogRecord],
    ) -> frozenset:
        cfg = self.config
        benign_periodic = set()
        for service in cfg.services:
            adopters = [h for h in hosts if rng.random() < service.adoption]
            if not adopters:
                continue
            benign_periodic.add(service.domain)
            for host in adopters:
                offset = float(rng.uniform(0.0, service.period))
                spec = service.beacon_spec(
                    max(cfg.duration - offset, service.period),
                    start=cfg.start + offset,
                )
                trace = spec.generate(rng)
                trace = trace[trace < cfg.start + cfg.duration]
                self._emit(records, host, service.domain, trace, ip_plan, rng,
                           service.url_path)
        return frozenset(benign_periodic)

    def _implant_records(
        self,
        hosts: Sequence[str],
        ip_plan: Dict[str, List[str]],
        rng: np.random.Generator,
        records: List[ProxyLogRecord],
        benign_periodic: frozenset,
    ) -> GroundTruth:
        cfg = self.config
        malicious: Dict[str, ImplantSpec] = {}
        infected = set()
        pool_seed = cfg.seed + 1
        for rank, implant in enumerate(cfg.implants):
            domain = generate_pool(
                rank + 1, family=implant.dga_family, seed=pool_seed
            )[rank]
            malicious[domain] = implant
            victims = rng.choice(
                len(hosts), size=min(implant.n_infected, len(hosts)), replace=False
            )
            for victim_idx in victims:
                host = hosts[int(victim_idx)]
                infected.add(host)
                offset = float(rng.uniform(0.0, min(cfg.duration / 4, 3600.0)))
                spec = implant.build_spec(
                    max(cfg.duration - offset, 1.0), cfg.start + offset
                )
                trace = spec.generate(rng)
                trace = trace[trace < cfg.start + cfg.duration]
                self._emit(records, host, domain, trace, ip_plan, rng,
                           implant.url_path)
        return GroundTruth(
            malicious_destinations=frozenset(malicious),
            infected_hosts=frozenset(infected),
            benign_periodic_destinations=benign_periodic,
            implant_by_destination=malicious,
        )
