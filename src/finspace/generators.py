"""Seeded instance generators for the randomized suites.

Every generator is a pure function of its seed.  Covers built here are
verified by the classifier before being handed out; if verification keeps
failing the generator raises GenerationExhausted rather than return an
instance that does not satisfy its advertised hypotheses.
"""

from __future__ import annotations

import logging
import random

from .complexes import SimplicialComplex, cone
from .covers import Cover, _nerve_table, classify_cover
from .cylinders import RIGHT, Relation, graph_relation
from .errors import GenerationExhausted
from .posets import FinitePoset, _contractible, build_poset

log = logging.getLogger(__name__)


def generate_poset(seed: int, size: int, height_cap: int = 4) -> FinitePoset:
    """Random poset on ``size`` elements with height at most ``height_cap``.

    Elements get random levels below the cap and order pairs only run from a
    lower level to a higher one, so the cap is respected by construction.
    """
    rng = random.Random(f"poset:{seed}:{size}:{height_cap}")
    names = [f"e{i}" for i in range(size)]
    levels = {x: rng.randrange(height_cap + 1) for x in names}
    pairs = []
    for a in names:
        for b in names:
            if levels[a] < levels[b] and rng.random() < 0.4:
                pairs.append((a, b))
    return build_poset(names, pairs)


def generate_relation(
    seed: int,
    X: FinitePoset,
    Y: FinitePoset,
    density: float = 0.3,
    direction: str = RIGHT,
    source_name: str = "X",
    target_name: str = "Y",
) -> Relation:
    """Random relation: each pair of source x target kept with probability ``density``."""
    rng = random.Random(f"relation:{seed}")
    pairs = frozenset(
        (x, y)
        for x in X.elements
        for y in Y.elements
        if rng.random() < density
    )
    return Relation(X, Y, pairs, direction, source_name, target_name)


def random_maximal_chain(rng: random.Random, X: FinitePoset) -> list[str]:
    """Walk from a random minimal element upward along random covers."""
    x = rng.choice(sorted(X.minimal_elements()))
    out = [x]
    while True:
        ups = sorted(X.covers_above(out[-1]))
        if not ups:
            return out
        out.append(rng.choice(ups))


def generate_monotone_map(seed: int, X: FinitePoset, Y: FinitePoset) -> dict[str, str]:
    """Order-preserving map sending x to a chain element picked by height.

    The image is a random maximal chain of Y; x < x' forces a strictly
    larger height, so the assignment preserves order.
    """
    rng = random.Random(f"map:{seed}")
    chain = random_maximal_chain(rng, Y)
    return {
        x: chain[min(X.height_of(x), len(chain) - 1)] for x in X.elements
    }


def generate_composite_instance(seed: int) -> tuple[Relation, Relation]:
    """A pair (R1, R2) whose composite satisfies the left collapse hypothesis.

    R1 is the identity on X.  R2 relates x to z exactly when x <= g(z) for an
    order-preserving g landing in a maximal chain of X; the open hull of the
    composite preimage of U_z is then U_{g(z)}, which has maximum g(z).
    """
    rng = random.Random(f"composite:{seed}")
    X = generate_poset(rng.randrange(2**31), rng.randint(3, 7), height_cap=3)
    Z = generate_poset(rng.randrange(2**31), rng.randint(2, 5), height_cap=3)
    chain = random_maximal_chain(rng, X)
    g = {z: chain[min(Z.height_of(z), len(chain) - 1)] for z in Z.elements}
    R1 = graph_relation(
        {x: x for x in X.elements}, X, X, RIGHT, source_name="X", target_name="Xm"
    )
    pairs = frozenset(
        (x, z) for z in Z.elements for x in X.down_set(g[z])
    )
    R2 = Relation(X, Z, pairs, RIGHT, source_name="X", target_name="Z")
    return R1, R2


def generate_complex(
    seed: int, max_vertices: int = 8, max_facets: int = 10, max_card: int = 4
) -> SimplicialComplex:
    """Random non-empty complex given by random facets over a small vertex pool."""
    rng = random.Random(f"cx:{seed}")
    pool = [f"v{i}" for i in range(rng.randint(2, max_vertices))]
    facets = []
    for _ in range(rng.randint(1, max_facets)):
        k = rng.randint(1, min(max_card, len(pool)))
        facets.append(rng.sample(pool, k))
    return SimplicialComplex(facets)


def generate_strong_good_cover(seed: int) -> tuple[SimplicialComplex, Cover]:
    """Cover whose members are cones over a shared apex.

    Every non-empty intersection of members is again a cone over the apex,
    so each is collapsible and the cover classifies as strong-good.  The
    classifier verdict is still required before an instance is returned.
    """
    rng = random.Random(f"strong-good:{seed}")
    for attempt in range(20):
        pool = [f"b{i}" for i in range(rng.randint(3, 7))]
        members = []
        for i in range(rng.randint(2, 5)):
            base = []
            for _ in range(rng.randint(1, 4)):
                k = rng.randint(1, min(3, len(pool)))
                base.append(rng.sample(pool, k))
            members.append((f"U{i + 1}", cone("a", SimplicialComplex(base))))
        parent = SimplicialComplex(f for _, sub in members for f in sub.facets)
        if len(parent.facets) > 40:
            continue
        cover = Cover("complex", parent, tuple(members))
        if classify_cover(cover).strong_good == "yes":
            if attempt:
                log.debug("strong-good cover for seed %d took %d attempts", seed, attempt + 1)
            return parent, cover
    raise GenerationExhausted(f"no strong-good cover within 20 attempts for seed {seed}")


def generate_good_space_cover(seed: int) -> tuple[FinitePoset, Cover]:
    """Good cover of a random finite space by minimal open sets of its maxima.

    Accepted only when every non-empty intersection of members is
    contractible (checked through cores on the nerve's intersection masks),
    so the cover is good by construction rather than by luck.
    """
    rng = random.Random(f"good-space:{seed}")
    for _ in range(60):
        X = generate_poset(rng.randrange(2**31), rng.randint(3, 7), height_cap=3)
        maxima = sorted(X.maximal_elements())
        if not 2 <= len(maxima) <= 5:
            continue
        members = tuple((f"U{i + 1}", X.down_set(x)) for i, x in enumerate(maxima))
        cover = Cover("poset", X, members)
        masks = _nerve_table(cover).values()
        if all(_contractible(X, m) for m in masks):
            return X, cover
    raise GenerationExhausted(f"no good space cover within 60 attempts for seed {seed}")
