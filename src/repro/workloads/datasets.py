"""Synthetic stand-ins for the paper's 15 SNAP datasets.

The original evaluation uses SNAP graphs ranging from ~1 K vertices
(email-Eu-core) to 1.2 billion edges (twitter-2010).  Those datasets cannot
ship with this repository and would be far beyond a pure-Python harness, so
the registry below defines *scaled-down synthetic stand-ins*: each entry
keeps the paper's dataset name, its role (representative / scalability /
extra), a generator with planted community structure or a heavy-tailed
degree distribution, and the per-dataset default ε used by the paper's
quality experiments (Tables 2 and 3).

This docstring is the record of the substitution: the algorithms' relative
behaviour is driven by degree distribution, community structure and the
update mix — all preserved here — not by the identity of the vertices.
Benchmarks report the same rows/series as the paper with these stand-ins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.graph.dynamic_graph import Edge
from repro.graph.generators import planted_partition_graph, powerlaw_cluster_graph


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one synthetic dataset stand-in."""

    name: str
    paper_name: str
    generator: Callable[[], List[Edge]]
    num_vertices: int
    default_epsilon_jaccard: float
    default_epsilon_cosine: float
    representative: bool = False
    scalability: bool = False
    description: str = ""

    def load(self) -> List[Edge]:
        """Generate (deterministically) and return the edge list."""
        return self.generator()


def _planted(communities: int, size: int, p_intra: float, p_inter: float, seed: int):
    def build() -> List[Edge]:
        return planted_partition_graph(communities, size, p_intra, p_inter, seed=seed)

    return build


def _powerlaw(n: int, attachments: int, triangle_prob: float, seed: int):
    def build() -> List[Edge]:
        return powerlaw_cluster_graph(n, attachments, triangle_prob, seed=seed)

    return build


def _spec(
    name: str,
    paper_name: str,
    generator: Callable[[], List[Edge]],
    num_vertices: int,
    eps_jaccard: float,
    eps_cosine: float,
    representative: bool = False,
    scalability: bool = False,
    description: str = "",
) -> Tuple[str, DatasetSpec]:
    return name, DatasetSpec(
        name=name,
        paper_name=paper_name,
        generator=generator,
        num_vertices=num_vertices,
        default_epsilon_jaccard=eps_jaccard,
        default_epsilon_cosine=eps_cosine,
        representative=representative,
        scalability=scalability,
        description=description,
    )


#: Registry of the 15 stand-ins, keyed by the short names used in the paper's
#: figures.  The first five are the paper's representative datasets; "twitter"
#: is the scalability dataset; the remaining nine are the extra datasets of
#: Table 1.
DATASETS: Dict[str, DatasetSpec] = dict(
    [
        _spec(
            "slashdot",
            "soc-Slashdot0811",
            _planted(communities=12, size=30, p_intra=0.35, p_inter=0.01, seed=11),
            360,
            0.15,
            0.30,
            representative=True,
            description="social network stand-in with moderate communities",
        ),
        _spec(
            "notre",
            "web-NotreDame",
            _powerlaw(n=500, attachments=4, triangle_prob=0.7, seed=12),
            500,
            0.19,
            0.36,
            representative=True,
            description="web graph stand-in, heavy-tailed with high clustering",
        ),
        _spec(
            "google",
            "web-Google",
            _planted(communities=20, size=32, p_intra=0.30, p_inter=0.005, seed=13),
            640,
            0.15,
            0.30,
            representative=True,
            description="web graph stand-in with many medium communities",
        ),
        _spec(
            "wiki",
            "wiki-topcats",
            _powerlaw(n=800, attachments=5, triangle_prob=0.6, seed=14),
            800,
            0.19,
            0.34,
            representative=True,
            description="hyperlink graph stand-in, larger and denser",
        ),
        _spec(
            "livej",
            "soc-LiveJournal1",
            _planted(communities=25, size=40, p_intra=0.28, p_inter=0.004, seed=15),
            1000,
            0.60,
            0.67,
            representative=True,
            description="large social network stand-in with strong communities",
        ),
        _spec(
            "twitter",
            "twitter-2010",
            _powerlaw(n=1500, attachments=6, triangle_prob=0.5, seed=16),
            1500,
            0.20,
            0.40,
            scalability=True,
            description="scalability stand-in (the paper's billion-edge dataset)",
        ),
        _spec(
            "email",
            "email-Eu-core",
            _planted(communities=6, size=18, p_intra=0.45, p_inter=0.02, seed=21),
            108,
            0.20,
            0.40,
            description="small dense communication network",
        ),
        _spec(
            "grqc",
            "ca-GrQc",
            _planted(communities=10, size=14, p_intra=0.5, p_inter=0.005, seed=22),
            140,
            0.20,
            0.40,
            description="collaboration network stand-in (small, clustered)",
        ),
        _spec(
            "condmat",
            "ca-CondMat",
            _planted(communities=14, size=18, p_intra=0.4, p_inter=0.006, seed=23),
            252,
            0.20,
            0.40,
            description="collaboration network stand-in",
        ),
        _spec(
            "epinions",
            "soc-Epinions1",
            _powerlaw(n=360, attachments=4, triangle_prob=0.55, seed=24),
            360,
            0.20,
            0.40,
            description="trust network stand-in, heavy tailed",
        ),
        _spec(
            "dblp",
            "dblp",
            _planted(communities=16, size=22, p_intra=0.42, p_inter=0.004, seed=25),
            352,
            0.20,
            0.40,
            description="co-authorship stand-in with crisp communities",
        ),
        _spec(
            "amazon",
            "amazon0601",
            _planted(communities=18, size=24, p_intra=0.35, p_inter=0.003, seed=26),
            432,
            0.20,
            0.40,
            description="co-purchase network stand-in",
        ),
        _spec(
            "pokec",
            "soc-Pokec",
            _powerlaw(n=900, attachments=5, triangle_prob=0.5, seed=27),
            900,
            0.20,
            0.40,
            description="social network stand-in, larger",
        ),
        _spec(
            "skitter",
            "as-skitter",
            _powerlaw(n=700, attachments=4, triangle_prob=0.45, seed=28),
            700,
            0.20,
            0.40,
            description="internet topology stand-in",
        ),
        _spec(
            "talk",
            "wiki-Talk",
            _powerlaw(n=600, attachments=3, triangle_prob=0.3, seed=29),
            600,
            0.20,
            0.40,
            description="communication graph stand-in, sparse and star-heavy",
        ),
    ]
)


#: Extra stand-ins that are *not* among the paper's 15 datasets but are needed
#: by specific experiments.  "dense" is the update-cost stand-in used by the
#: Figure 8-11 benchmarks: those figures are dominated by updates touching the
#: high-degree vertices of wiki/LiveJ/Twitter, whose degrees are far beyond
#: what the laptop-scale stand-ins above can hold, so this graph reproduces
#: the operative property (degrees well above both the affordability
#: threshold 2/(rho*eps) and the harness sample cap) at a drivable size.
EXTRA_DATASETS: Dict[str, DatasetSpec] = dict(
    [
        _spec(
            "dense",
            "update-cost stand-in (wiki/LiveJ degree regime)",
            _powerlaw(n=600, attachments=30, triangle_prob=0.5, seed=31),
            600,
            0.20,
            0.40,
            description="dense hub-heavy stand-in for the update-cost figures",
        ),
    ]
)

#: Every registered stand-in: the 15 paper datasets plus the extras.
ALL_DATASETS: Dict[str, DatasetSpec] = {**DATASETS, **EXTRA_DATASETS}

#: The paper's five representative datasets (Section 9), in its order.
REPRESENTATIVES: List[str] = ["slashdot", "notre", "google", "wiki", "livej"]

#: Representatives plus the scalability dataset — the six columns of Table 2.
QUALITY_DATASETS: List[str] = REPRESENTATIVES + ["twitter"]


def list_datasets(include_extras: bool = True) -> List[str]:
    """Names of every registered dataset (paper stand-ins plus extras)."""
    return list(ALL_DATASETS) if include_extras else list(DATASETS)


def load_dataset(name: str) -> List[Edge]:
    """Generate and return the edge list of the named dataset stand-in."""
    spec = ALL_DATASETS.get(name)
    if spec is None:
        raise KeyError(f"unknown dataset {name!r}; known: {', '.join(ALL_DATASETS)}")
    return spec.load()


def dataset_spec(name: str) -> DatasetSpec:
    """Return the :class:`DatasetSpec` of the named dataset."""
    spec = ALL_DATASETS.get(name)
    if spec is None:
        raise KeyError(f"unknown dataset {name!r}; known: {', '.join(ALL_DATASETS)}")
    return spec
