"""The brute-force references, pinned bit for bit.

Each reference runs on the same seeded inputs at n = 1..8: tables with
zero cells, tables whose marginals are all exactly 1/2 (the uniform one,
where every marginal ties), dyadic tables whose event 0 has marginal
exactly 1/2, and plain random tables, with random ``keep`` masks.  The
SHA-256 of the float64 bytes of every output (the text, for the CSV
writer) is compared with a digest of the same outputs taken when the
references did their arithmetic on numpy scalars, so a rewrite of their
loops cannot move a single bit.
"""

import hashlib
import io

import numpy as np
import pytest

from kopula import Epd1, EventSetContext
from kopula.oracles import (
    naive_epd1_from_epd2,
    naive_epd2_from_epd1,
    naive_epd_csv,
    naive_marginals,
    naive_renumber,
    product_epd1,
    recursive_frame_epd1,
)

TABLES_PER_N = {1: 12, 2: 12, 3: 12, 4: 12, 5: 12, 6: 8, 7: 4, 8: 4}


def seeded_table(rng, n: int, kind: int) -> np.ndarray:
    size = 1 << n
    if kind == 0:  # random, about a quarter of the cells zero
        v = rng.random(size)
        v[rng.random(size) < 0.25] = 0.0
        v[rng.integers(0, size)] += 0.5  # never all zero
        return v / v.sum()
    if kind == 1:  # every marginal exactly 1/2, and all of them tied
        return np.full(size, 1.0 / size)
    if kind == 2:  # dyadic, cells paired across event 0: its marginal is exactly 1/2
        half = rng.integers(0, 8, size // 2).astype(np.float64)
        total = 1 << int(half.sum()).bit_length()
        half[0] += total - half.sum()
        return np.repeat(half, 2) / (2 * total)
    v = rng.random(size)  # plain random
    return v / v.sum()


def cases():
    """(table, keep, probs) triples, the same at every run."""
    out = []
    for n, count in TABLES_PER_N.items():
        rng = np.random.default_rng(1000 + n)
        ctx = EventSetContext(n)
        for i in range(count):
            d = Epd1(ctx, seeded_table(rng, n, i % 4))
            keep = int(rng.integers(0, ctx.size))
            probs = rng.random(n)
            probs[rng.random(n) < 0.3] = 0.0
            probs[rng.random(n) < 0.3] = 0.5
            probs[rng.random(n) < 0.2] = 1.0
            out.append((d, keep, probs))
    return out


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else np.asarray(chunk, np.float64).tobytes())
    return h.hexdigest()


def csv_text(d) -> bytes:
    fp = io.StringIO()
    naive_epd_csv(d, fp)
    return fp.getvalue().encode()


REFERENCES = {
    "naive_epd2_from_epd1": lambda d, keep, probs: naive_epd2_from_epd1(d).values,
    "naive_epd1_from_epd2": lambda d, keep, probs: naive_epd1_from_epd2(
        naive_epd2_from_epd1(d)).values,
    "naive_marginals": lambda d, keep, probs: naive_marginals(d).probs,
    "naive_renumber": lambda d, keep, probs: naive_renumber(d, keep).values,
    "product_epd1": lambda d, keep, probs: product_epd1(d.context, probs).values,
    "recursive_frame_epd1": lambda d, keep, probs: recursive_frame_epd1(
        naive_epd2_from_epd1(d)).values,
    "naive_epd_csv": lambda d, keep, probs: csv_text(d),
}

DIGESTS = {
    "naive_epd2_from_epd1": (
        "243c2ada6ec29ef3e0dda759c136af95"
        "4617a523b3726de173eea2695ac302a6"
    ),
    "naive_epd1_from_epd2": (
        "9a1b3531a17c107c6d30cca4b89efe40"
        "7344cbe4f09f16a032957d47f17b2d4b"
    ),
    "naive_marginals": (
        "f50f29d694a9e19255462715a9a3f871"
        "c1d201361c4977ba3e406057cd1c0f98"
    ),
    "naive_renumber": (
        "0634193addd247a5fe63f31df413c78f"
        "cf33370f0596427e3635e572dcd6dde2"
    ),
    "product_epd1": (
        "582c359abb3546793ef87bb14e134e3b"
        "c1d92af4e6f61a34edbfe061f9296074"
    ),
    "recursive_frame_epd1": (
        "6162ee5474a3f6adf4e2662755d4d29e"
        "3d7018fde156f12d76801697c92f500f"
    ),
    "naive_epd_csv": (
        "19b3bd845105b8bb1e2a417fb7656d24"
        "a6305c35ba5505554b006c9104581103"
    ),
}


@pytest.fixture(scope="module")
def inputs():
    return cases()


@pytest.mark.parametrize("name", list(REFERENCES))
def test_reference_output_is_bit_for_bit_pinned(name, inputs):
    ref = REFERENCES[name]
    assert digest(ref(*case) for case in inputs) == DIGESTS[name]
