"""Correctness inside the run: answers against the brute-force oracle.

All checks run outside the timed regions.  A full ``diff_results`` costs
a filter over the whole dataset plus a canonical sort of the answer, so
a ``Verifier`` spends at most ``budget_s`` seconds in total, visiting
each batch of answers in an order that spreads a truncated budget evenly
over the run; answers too large to retain have their record count
checked against ``Dataset.count_in_box`` (one mask, no sort).
"""

from __future__ import annotations

import time

from repro.verify import diff_results, oracle_answer


class Verifier:
    def __init__(self, budget_s: float):
        self.budget_s = budget_s
        self._deadline = None    # the clock starts with the first check
        self.full = 0        # answers bit-compared to the oracle
        self.counted = 0     # answers whose record count was compared
        self.mismatched = 0
        self.examples: list[str] = []

    def _out_of_time(self) -> bool:
        if self._deadline is None:
            self._deadline = time.perf_counter() + self.budget_s
        return time.perf_counter() > self._deadline

    def _note(self, what: str) -> None:
        self.mismatched += 1
        if len(self.examples) < 3:
            self.examples.append(what)

    def check(self, dataset, answers) -> None:
        """``answers`` is a list of ``(label, box, got)`` where ``got`` is
        a ``Dataset`` (queries) or an ``int`` (counts)."""
        for label, box, got in _spread(answers):
            if self._out_of_time():
                break
            if isinstance(got, int):
                want = dataset.count_in_box(box)
                self.counted += 1
                if want != got:
                    self._note(f"{label}: count {got}, oracle {want}")
                continue
            diff = diff_results(oracle_answer(dataset, box), got)
            self.full += 1
            if diff is not None:
                self._note(f"{label}: {diff.describe()}")

    def check_counts(self, dataset, sized) -> None:
        """``sized`` is ``(label, box, n_records)`` for answers that were
        not retained: compare the record count only."""
        for label, box, n in _spread(sized):
            if self._out_of_time():
                break
            want = dataset.count_in_box(box)
            self.counted += 1
            if want != n:
                self._note(f"{label}: {n} records, oracle {want}")

    def summary(self) -> dict:
        return {"verified_full": self.full, "verified_count": self.counted,
                "mismatched": self.mismatched, "examples": self.examples}


def _spread(items):
    """``items`` reordered so any prefix is evenly spaced over the list
    (bit-reversal order): first, middle, quarters, ..."""
    n = len(items)
    if n == 0:
        return []
    bits = max(1, (n - 1).bit_length())
    order = sorted(range(n), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))
    return [items[i] for i in order]
