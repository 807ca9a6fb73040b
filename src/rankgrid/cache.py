"""Persistent cache of solved instances.

Plain JSONL, append-only: a version header line followed by one record
per result.  Records are keyed by the graph hash, so any way of arriving
at the same canonical graph shares entries.  Opening a cache reads the
file and checks its header; a record line is parsed only when a lookup or
write asks for a key the line names, or when `entries` lists them all.
Each key is decided from its own records in file order, so a lookup sees
what a read of the whole file would.  Unreadable lines (bad JSON, bytes
that are not UTF-8, a key that is not a graph hash) are skipped with a
warning when they are read, and a hit whose labels fail validate is a
miss; the cache is an accelerator, never an authority.  A hit is handed
out as the result it settles, built on the ranking validate checked, so
what is printed is what was checked.  An interval record (a solve that
ran out of budget) settles nothing and is a quiet miss.
"""

from __future__ import annotations

import json
import logging
import operator
import os
import re
from bisect import bisect_left
from pathlib import Path

from .graphs import Graph
from .solve import DecisionOutcome, RankResult
from .verify import Ranking, validate

log = logging.getLogger(__name__)

CACHE_VERSION = 1
ENV_VAR = "RANKGRID_CACHE"
# what graph_hash produces: no such key contains another, so a search for
# one key's text finds every line that names it and never matches inside
# another key
_KEY = re.compile("[0-9a-f]{64}")
_UB = operator.itemgetter("ub")

__all__ = ["SolutionCache", "resolve_cache_path", "CACHE_VERSION", "ENV_VAR"]


def resolve_cache_path(explicit: str | None = None) -> Path:
    """--cache flag beats RANKGRID_CACHE beats the default user data dir."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    base = os.environ.get("XDG_DATA_HOME") or os.path.join(os.path.expanduser("~"), ".local", "share")
    return Path(base) / "rankgrid" / "cache.jsonl"


class SolutionCache:
    """In-memory view over one cache file, with append write-through."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.writable = True
        self._exact: dict[str, dict] = {}
        # each key's labelled exact records by ub, the later first of equal ones
        self._labelled: dict[str, list[dict]] = {}
        self._failed: dict[str, dict] = {}  # records get_exact dropped
        self._decision: dict[tuple[str, int], dict] = {}
        self._header = b""
        self._buf = b""  # the record lines as read, all after the header
        self._done: set[int] = set()  # offsets of the lines already read
        self._load()

    def _load(self) -> None:
        try:
            buf = self.path.read_bytes()
        except FileNotFoundError:
            return
        end = buf.find(b"\n")
        first = buf if end < 0 else buf[:end]
        if not first.strip():
            return
        try:
            version = json.loads(first.decode("utf-8"))["rankgrid_cache"]
        except (ValueError, TypeError, KeyError):
            log.warning("cache %s has no valid header; ignoring file", self.path)
            self.writable = False
            return
        if version != CACHE_VERSION:
            log.warning(
                "cache %s is version %s, expected %s; ignoring file",
                self.path, version, CACHE_VERSION,
            )
            self.writable = False
            return
        self._header, self._buf = first, buf[end + 1:] if end >= 0 else b""

    def _take(self, key: str | None) -> None:
        """Read, in file order, each unread line that contains key, or every
        unread line if key is None."""
        buf, done = self._buf, self._done
        if key is None:
            start = 0
            while start < len(buf):
                end = buf.find(b"\n", start)
                end = len(buf) if end < 0 else end
                if start not in done:
                    self._read(start, end, None)
                start = end + 1
            self._buf = b""
            done.clear()
            return
        needle = key.encode()
        at = buf.find(needle)
        while at >= 0:
            start = buf.rfind(b"\n", 0, at) + 1
            end = buf.find(b"\n", at)
            end = len(buf) if end < 0 else end
            if start not in done:
                self._read(start, end, key)
            at = buf.find(needle, end)

    def _read(self, start: int, end: int, key: str | None) -> None:
        """Absorb the line buf[start:end], or warn that it is corrupt.  A
        record of another key than key (one that names key in some other
        field) is left unread: it is absorbed with its own key's records."""
        line = self._buf[start:end]
        if line.strip() and line != self._header:  # else blank, or a racing writer's header
            try:
                text = line.decode("utf-8")
                rec = json.loads(text)
                if key is not None and rec["key"] != key:
                    return
                if rec["key"] not in text:  # spelled with escapes: a lookup would not find it
                    raise ValueError("key not written out")
                self._absorb(rec)
            except (ValueError, TypeError, KeyError):
                lineno = self._buf.count(b"\n", 0, start) + 2  # the header is line 1
                log.warning("cache %s line %d is corrupt; skipped", self.path, lineno)
        self._done.add(start)

    def _absorb(self, rec: dict) -> None:
        kind, key = rec["kind"], rec["key"]
        if not (isinstance(key, str) and _KEY.fullmatch(key)):
            raise ValueError(f"key {key!r} is not a graph hash")
        if kind == "exact":
            lb, ub = operator.index(rec["lb"]), operator.index(rec["ub"])
            if lb > ub:
                raise ValueError("inverted interval")
            old = self._exact.get(key)
            # keep the tightest information seen; of equal intervals the
            # later wins, so a fresh solve replaces a record that failed
            if old is None or (lb, -ub) >= (old["lb"], -old["ub"]):
                self._exact[key] = rec
            if rec.get("labels") is not None:
                labelled = self._labelled.setdefault(key, [])
                labelled.insert(bisect_left(labelled, ub, key=_UB), rec)
        elif kind == "decision":
            self._decision[(key, operator.index(rec["k"]))] = rec
        else:
            raise ValueError(f"unknown record kind {kind!r}")

    def _append(self, rec: dict) -> None:
        if not self.writable:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # one write on an O_APPEND descriptor: concurrent writers never
        # interleave inside a line; two fresh writers may both add a header
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            head = "" if os.fstat(fd).st_size else json.dumps({"rankgrid_cache": CACHE_VERSION}) + "\n"
            os.write(fd, (head + json.dumps(rec, sort_keys=True) + "\n").encode())
        finally:
            os.close(fd)

    @staticmethod
    def _ranking(g: Graph, rec: dict, fits, seen: dict[int, Ranking | None]) -> Ranking | None:
        """The ranking of g by rec's integer labels if it is valid and
        fits(label_count), else None.  seen holds the rankings this reply
        has checked, by record, so no reply validates a record twice."""
        if id(rec) not in seen:
            try:
                r = Ranking(g, tuple(operator.index(l) for l in rec["labels"]))
            except (KeyError, TypeError, ValueError):
                r = None
            seen[id(rec)] = r if r is not None and validate(r) is None else None
        r = seen[id(rec)]
        return r if r is not None and fits(r.label_count) else None

    def _checked(self, g: Graph, rec: dict, fits, seen: dict[int, Ranking | None]) -> Ranking | None:
        """_ranking, with a warning when rec fails (a miss)."""
        r = self._ranking(g, rec, fits, seen)
        if r is None:
            log.warning("cache %s: %s record %s fails its check; miss", self.path, rec["kind"], rec["key"])
        return r

    # -- exact results -----------------------------------------------------

    def get_exact(self, g: Graph) -> RankResult | None:
        """g's settled value with its checked ranking, or None.  A record
        that fails its check leaves the view but is kept aside: it is still
        in the file.  So is a record whose lb exceeds the label count of a
        checked ranking in the file: the reply then comes from that ranking's
        record if it settles the value, and is a miss if not.  A lower record
        that fails its check refutes nothing and is passed over quietly."""
        self._take(g.graph_hash)
        return self._settled(g, {})

    def _settled(self, g: Graph, seen: dict[int, Ranking | None]) -> RankResult | None:
        """get_exact's reply, once g's lines are read."""
        key = g.graph_hash
        rec, labelled = self._exact.get(key), self._labelled.get(key)
        if rec is not None and labelled and rec["lb"] > labelled[0]["ub"]:
            # a record of least ub whose labels pass refutes the lb, if any does
            for least in labelled:
                if least["ub"] >= rec["lb"]:
                    break
                if self._ranking(g, least, lambda count: count == least["ub"], seen) is not None:
                    log.warning("cache %s: exact record %s claims lb %d, but a checked ranking has %d"
                                " labels; record dropped", self.path, key, rec["lb"], least["ub"])
                    self._failed[key] = rec
                    rec = self._exact[key] = least
                    break
        if rec is None or rec["lb"] != rec["ub"]:
            return None
        r = self._checked(g, rec, lambda count: count == rec["lb"], seen)
        if r is None:
            self._failed[key] = self._exact.pop(key)
            return None
        return RankResult(r.label_count, r.label_count, "cache", r, 0.0)

    def put_exact(self, g: Graph, lb: int, ub: int, labels: list[int] | None,
                  elapsed: float) -> None:
        """Record [lb, ub] for g unless the view holds one at least as tight or
        a failed record would still win on reload: reruns do not grow the file.
        A ranking of fewer labels than a failed record's lb refutes it on reload."""
        self._take(g.graph_hash)
        old = self._exact.get(g.graph_hash)
        if old is not None and old["lb"] >= lb and old["ub"] <= ub:
            return
        bad = self._failed.get(g.graph_hash)
        if (bad is not None and (lb, -ub) < (bad["lb"], -bad["ub"])
                and (labels is None or ub >= bad["lb"])):
            return
        rec = {
            "kind": "exact",
            "key": g.graph_hash,
            "lb": lb,
            "ub": ub,
            "labels": list(labels) if labels is not None else None,
            "elapsed": round(elapsed, 6),
            "provenance": "exact",
        }
        self._absorb(rec)
        self._append(rec)

    # -- decision results --------------------------------------------------

    def get_decision(self, g: Graph, k: int) -> DecisionOutcome | None:
        """The settled answer for (g, k), a "yes" with its checked ranking,
        or None.  A "no" carries no labels, so a checked ranking of at most
        k labels in an exact record overrules it: the settled one, else one
        of least ub whose labels pass, an interval record's included.  The
        answer is then "yes" with that ranking."""
        key = g.graph_hash
        self._take(key)
        rec = self._decision.get((key, k))
        if rec is None:
            return None
        seen: dict[int, Ranking | None] = {}
        if rec.get("feasible") is False:
            exact = self._settled(g, seen)
            if exact is not None and exact.value <= k:
                return DecisionOutcome(exact.certificate, False, 0.0)
            for least in self._labelled.get(key, ()):
                if least["ub"] > k:
                    break
                if (r := self._ranking(g, least, lambda count: count <= k, seen)) is not None:
                    return DecisionOutcome(r, False, 0.0)
            return DecisionOutcome(None, False, 0.0)
        r = self._checked(g, rec, lambda count: rec.get("feasible") is True and count <= k, seen)
        return None if r is None else DecisionOutcome(r, False, 0.0)

    def put_decision(self, g: Graph, k: int, feasible: bool,
                     labels: list[int] | None, elapsed: float) -> None:
        self._take(g.graph_hash)
        rec = {
            "kind": "decision",
            "key": g.graph_hash,
            "k": k,
            "feasible": feasible,
            "labels": list(labels) if labels is not None else None,
            "elapsed": round(elapsed, 6),
        }
        self._absorb(rec)
        self._append(rec)

    # -- introspection -----------------------------------------------------

    def entries(self) -> list[dict]:
        self._take(None)
        out = list(self._exact.values())
        out.extend(self._decision.values())
        return sorted(out, key=lambda r: (r["kind"], r["key"], r.get("k", 0)))

    def __len__(self) -> int:
        self._take(None)
        return len(self._exact) + len(self._decision)
