"""Seeded inputs and the correctness oracle for the benchmark workloads.

Everything the system under test receives is generated here from the
``--seed`` argument: the ``kv`` rows, the point-op stream and the scan
stream. The oracle checks every answer against a shadow copy of ``kv``
that the benchmark keeps itself.
"""

from __future__ import annotations

import bisect
import random
import string

#: ``kv`` shape: 20 000 rows of (id, g, v, 64-byte pad)
KV_ROWS = 20_000
KV_GROUPS = 16
PAD_BYTES = 64
ZIPF_THETA = 0.9
RANGE_WIDTH = 20
#: point-op mix: reads, then updates, the rest inserts of fresh keys
READ_SHARE = 0.80
UPDATE_SHARE = 0.15

KV_CREATE = "CREATE TABLE kv (id INT PRIMARY KEY, g INT, v INT, pad TEXT)"
SQL_READ = "SELECT v FROM kv WHERE id = ?"
SQL_UPDATE = "UPDATE kv SET v = ? WHERE id = ?"
SQL_INSERT = "INSERT INTO kv VALUES (?, ?, ?, ?)"
SQL_AGG = "SELECT g, SUM(v), COUNT(*) FROM kv GROUP BY g"
SQL_RANGE = "SELECT id, v FROM kv WHERE id BETWEEN ? AND ?"


def _pads(rng: random.Random, count: int) -> list[str]:
    letters = string.ascii_letters + string.digits
    return ["".join(rng.choices(letters, k=PAD_BYTES)) for _ in range(count)]


def kv_rows(seed: int) -> list[tuple]:
    """The initial ``kv`` table: ids 0..KV_ROWS-1 with seeded g, v, pad."""
    rng = random.Random(f"kv-rows-{seed}")
    pads = _pads(rng, 256)
    return [
        (i, rng.randrange(KV_GROUPS), rng.randrange(1_000_000), rng.choice(pads))
        for i in range(KV_ROWS)
    ]


class Zipf:
    """Zipf(theta) sampler over ``keys``; rank 0 is the hottest key.

    The keys are shuffled once, so hot keys are spread over the heap
    pages instead of sharing the first few.
    """

    def __init__(self, keys: list[int], theta: float, rng: random.Random):
        self._keys = list(keys)
        rng.shuffle(self._keys)
        self._cdf = []
        total = 0.0
        for rank in range(1, len(self._keys) + 1):
            total += 1.0 / rank**theta
            self._cdf.append(total)
        self._rng = rng

    def next(self) -> int:
        u = self._rng.random() * self._cdf[-1]
        return self._keys[min(bisect.bisect_left(self._cdf, u), len(self._keys) - 1)]


class PointOps:
    """Endless seeded stream of ``(kind, sql, params)`` point ops.

    80% reads and 15% updates of Zipfian keys over the initial rows,
    5% inserts of fresh keys counting up from ``KV_ROWS``.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(f"kv-point-{seed}")
        self._zipf = Zipf(list(range(KV_ROWS)), ZIPF_THETA, self._rng)
        self._pads = _pads(self._rng, 64)
        self._next_key = KV_ROWS

    def next(self) -> tuple[str, str, tuple]:
        u = self._rng.random()
        if u < READ_SHARE:
            return "read", SQL_READ, (self._zipf.next(),)
        if u < READ_SHARE + UPDATE_SHARE:
            return "write", SQL_UPDATE, (self._rng.randrange(1_000_000), self._zipf.next())
        key = self._next_key
        self._next_key += 1
        row = (
            key,
            self._rng.randrange(KV_GROUPS),
            self._rng.randrange(1_000_000),
            self._rng.choice(self._pads),
        )
        return "write", SQL_INSERT, row


class ScanOps:
    """Endless seeded stream alternating the GROUP BY and a 20-key range."""

    def __init__(self, seed: int):
        self._rng = random.Random(f"kv-scan-{seed}")
        self._count = 0

    def next(self) -> tuple[str, str, tuple | None]:
        self._count += 1
        if self._count % 2:
            return "agg", SQL_AGG, None
        lo = self._rng.randrange(KV_ROWS - RANGE_WIDTH + 1)
        return "range", SQL_RANGE, (lo, lo + RANGE_WIDTH - 1)


class KVOracle:
    """Shadow copy of ``kv``: applies writes, predicts every answer."""

    def __init__(self, rows: list[tuple]):
        self.rows = {row[0]: row for row in rows}

    def check(self, sql: str, params, result) -> bool:
        """Apply ``sql`` to the shadow and compare with ``result``."""
        rows = tuple(tuple(r) for r in result.rows)
        if sql == SQL_READ:
            return rows == ((self.rows[params[0]][2],),)
        if sql == SQL_UPDATE:
            value, key = params
            old = self.rows[key]
            self.rows[key] = (key, old[1], value, old[3])
            return result.rowcount == 1
        if sql == SQL_INSERT:
            self.rows[params[0]] = tuple(params)
            return result.rowcount == 1
        if sql == SQL_AGG:
            return sorted(rows) == self.aggregate()
        if sql == SQL_RANGE:
            lo, hi = params
            expected = sorted(
                (key, row[2]) for key, row in self.rows.items() if lo <= key <= hi
            )
            return sorted(rows) == expected
        raise ValueError(f"no oracle for {sql!r}")

    def aggregate(self) -> list[tuple]:
        sums: dict[int, list[int]] = {}
        for _key, g, v, _pad in self.rows.values():
            acc = sums.setdefault(g, [0, 0])
            acc[0] += v
            acc[1] += 1
        return sorted((g, s, c) for g, (s, c) in sums.items())
