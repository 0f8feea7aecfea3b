"""Streaming sweep results.

A two-layer results API, so that a sweep neither loses finished cells to an
interruption nor pays for its result several times over in memory:

* :class:`ResultSetWriter` appends **identity-keyed JSONL records** to disk as
  cells complete — one canonical (sorted-key) JSON object per line, headed by
  a format/base-seed line — so an interrupted sweep leaves every finished cell
  usable;
* :class:`ResultSet` is the in-memory view: built incrementally by
  :func:`repro.experiments.sweep.sweep`, reconstructed from prior runs with
  :meth:`ResultSet.load` (JSONL *or* the legacy monolithic JSON), and queried
  with :meth:`~ResultSet.filter` / :meth:`~ResultSet.groupby` /
  :meth:`~ResultSet.aggregate`.

The canonical view is preserved exactly: :meth:`ResultSet.to_json` emits the
same sorted-key, cell-index-ordered payload the old all-in-memory result
class did, so the byte-identical-across-worker-counts guarantee — and every
archived golden file — survives the migration.

What each direction holds in memory beside the records themselves (ratcheted
with ``tracemalloc`` in ``tests/experiments/test_results.py``):

* :meth:`ResultSet.to_json` — the output string, its pieces (once more the
  output's size, until they are joined) and the encoder's tokens for one
  slice of :data:`_SLICE` flow rows or small records: 2.0 x the output
  where one ``json.dumps(indent=2)`` call, which lists every token of the
  document before joining them, took 6.2 x;
* :meth:`ResultSet.write` — one slice's tokens and the file buffer, whatever
  the size of the result, into a temp file renamed over the destination
  (:func:`write_atomic`): a failed write leaves the previous file;
* :meth:`ResultSet.load` — the records plus one line of a JSONL stream
  (a legacy monolithic file is still read whole: it is one JSON value).

A record's **identity** is the canonical JSON of its ``cell`` parameters
(everything but the measured outcome); the
:class:`~repro.experiments.store.CellStore` is keyed on it, which makes long
sweeps restartable — and extendable, with a caveat: identity embeds the
cell's grid index and derived seed, so reuse happens only where the
enumeration still lines up.  Extending a grid along its fastest-varying tail
(new points appended after every existing enumeration position) reuses all
prior cells; inserting values into a slower-varying axis shifts the indices
behind it and honestly re-runs those cells under their new seeds.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

__all__ = [
    "RESULTSET_FORMAT",
    "ResultSet",
    "ResultSetWriter",
    "cell_identity_key",
    "write_atomic",
]

#: Format tag on the first line of a ResultSet JSONL file.
RESULTSET_FORMAT = "repro.resultset/v1"

#: Identity keys that differ between *every* pair of cells (they encode the
#: cell's position in its grid), so suggesting them never helps a caller
#: disambiguate an ambiguous lookup.
_POSITIONAL_KEYS = ("index", "seed")


def cell_identity_key(cell_params: Dict[str, Any]) -> str:
    """The canonical identity of a cell: its parameter dict as sorted-key JSON.

    Two cells are "the same point" (for store reuse and load deduplication)
    exactly when this string matches — scheme spec, resolved kwargs, topology,
    seed and all.
    """
    return json.dumps(cell_params, sort_keys=True)


def _matches(identity: Dict[str, Any], params: Dict[str, Any]) -> bool:
    """True when ``identity`` satisfies every ``params`` constraint.

    A constraint value may be a plain value (equality) or a callable
    predicate over the identity's value (e.g. ``loss_rate=lambda v: v > 0``).
    """
    for key, want in params.items():
        have = identity.get(key)
        if callable(want):
            if not want(have):
                return False
        elif have != want:
            return False
    return True


def _group_value(value: Any) -> Any:
    """A hashable stand-in for an identity value (dicts become canonical JSON)."""
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return value


def write_atomic(path: str, pieces: Iterable[str]) -> None:
    """Stream ``pieces`` into a temp file beside ``path``, then rename it over
    ``path``: a reader — or a crash, a full disk, a ``pieces`` that raises —
    sees either the old file or the whole new one, never a torn write."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise


#: The one encoder behind the canonical view.  Shared, because every
#: ``json.dumps(..., indent=2)`` call builds a ``JSONEncoder`` of its own.
_encode = json.JSONEncoder(indent=2, sort_keys=True).encode

#: The container layers of the canonical document that may be walked in
#: Python rather than handed to the encoder whole: the payload, its ``cells``
#: list, a record, a record's list-valued entries (``flows``).
_ENVELOPE = (dict, list, dict, list)

#: Consecutive items of an envelope list that go to the encoder in one call.
#: A call costs about 5 us before the first token (the stdlib rebuilds its
#: closures), as much as encoding a two-key dict: 5 000 such records take
#: 51 ms at one a call, 35.5 ms at 32, 34.0 ms at 128 and 39.4 ms through one
#: ``json.dumps``.  32 keeps what is held beside the output to 32 items'
#: tokens.
_SLICE = 32


def _walked(value: Any, depth: int) -> bool:
    """Whether ``value``, ``depth`` containers into the document, is walked in
    Python: an envelope list longer than one slice, or an envelope container
    holding one.  Anything else is small, and is encoded whole — as is a dict
    whose keys are not all ``str`` (the stdlib sorts those before it
    stringifies them)."""
    if depth >= len(_ENVELOPE) or not isinstance(value, _ENVELOPE[depth]):
        return False
    if isinstance(value, list):
        return (len(value) > _SLICE
                or any(_walked(child, depth + 1) for child in value))
    return (all(isinstance(key, str) for key in value)
            and any(_walked(child, depth + 1) for child in value.values()))


def _canonical_pieces(value: Any, depth: int = 0) -> Iterator[str]:
    """Strings that concatenate to ``json.dumps(value, indent=2,
    sort_keys=True)`` as it reads ``depth`` containers into a document.

    A walked dict yields a piece per key, a walked list a piece per slice of
    small items; every piece is :data:`_encode` output re-indented (raw
    newlines in it are indentation only: inside strings they are escaped).
    """
    newline = "\n" + "  " * depth
    if not _walked(value, depth):
        yield _encode(value).replace("\n", newline)
        return
    inner = newline + "  "
    if isinstance(value, dict):
        lead = "{" + inner
        for key, child in sorted(value.items()):
            pieces = _canonical_pieces(child, depth + 1)
            yield lead + _encode(key) + ": " + next(pieces)
            yield from pieces
            lead = "," + inner
        yield newline + "}"
        return
    lead = "["
    for walked, run in itertools.groupby(
            value, lambda child: _walked(child, depth + 1)):
        if walked:
            for child in run:
                pieces = _canonical_pieces(child, depth + 1)
                yield lead + inner + next(pieces)
                yield from pieces
                lead = ","
        else:
            while items := list(itertools.islice(run, _SLICE)):
                # "[\n  a,\n  b\n]" without its brackets: "\n  a,\n  b".
                yield lead + _encode(items)[1:-2].replace("\n", newline)
                lead = ","
    yield newline + "]"


class ResultSet:
    """An ordered, identity-keyed collection of sweep cell records.

    Records are the deterministic per-cell payload dicts (``cell`` identity,
    ``flows`` summaries, ``engine`` counters); the non-deterministic per-cell
    wall times ride alongside and never enter the canonical JSON view.
    However records were accumulated — streamed in completion order by a
    multi-worker sweep, loaded from disk — every exposed ordering is
    canonical (ascending cell index), so :meth:`to_json` is byte-identical for the same set of cells.
    """

    def __init__(
        self,
        base_seed: int,
        records: Optional[Iterable[Dict[str, Any]]] = None,
        timings: Optional[Sequence[float]] = None,
    ) -> None:
        self.base_seed = int(base_seed)
        self._records: List[Dict[str, Any]] = []
        self._timings: List[float] = []
        self._order_cache: Optional[List[int]] = None
        #: Reuse telemetry set by :func:`repro.experiments.execute.execute_cells`
        #: (``{"cells", "store_hits", "executed"}``); ``None``
        #: for result sets built any other way.  Telemetry only — never part
        #: of the canonical JSON view.
        self.reuse: Optional[Dict[str, int]] = None
        records = list(records or [])
        if timings is not None and len(timings) != len(records):
            raise ValueError(
                f"{len(timings)} timings for {len(records)} records; "
                f"the two lists must align"
            )
        for position, record in enumerate(records):
            self.append(record,
                        None if timings is None else timings[position])

    # -- accumulation ---------------------------------------------------------
    def append(self, record: Dict[str, Any],
               wall_time_s: Optional[float] = None) -> None:
        """Add one cell record (a ``wall_time_s`` key is split off as timing)."""
        if "cell" not in record:
            raise ValueError("a result record needs a 'cell' identity dict")
        record = dict(record)
        embedded = record.pop("wall_time_s", None)
        self._records.append(record)
        self._timings.append(float(wall_time_s if wall_time_s is not None
                                   else embedded or 0.0))
        self._order_cache = None

    # -- canonical ordering ---------------------------------------------------
    def _order(self) -> List[int]:
        # Memoized: query helpers (find/filter/groupby/goodput_mbps loops)
        # hit the canonical ordering repeatedly, and resorting per access
        # would make per-cell lookup loops quadratic on large sweeps.
        if self._order_cache is None:
            self._order_cache = sorted(
                range(len(self._records)),
                key=lambda i: (self._records[i]["cell"].get("index", 0), i),
            )
        return self._order_cache

    @property
    def cells(self) -> List[Dict[str, Any]]:
        """The records in canonical (ascending cell index) order."""
        return [self._records[i] for i in self._order()]

    @property
    def records(self) -> List[Dict[str, Any]]:
        """Alias of :attr:`cells` under the new API's vocabulary."""
        return self.cells

    @property
    def timings(self) -> List[float]:
        """Per-record wall times, aligned with :attr:`cells`."""
        return [self._timings[i] for i in self._order()]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.cells)

    # -- persistence ----------------------------------------------------------
    def _json_pieces(self, include_timing: bool) -> Iterator[str]:
        payload: Dict[str, Any] = {"base_seed": self.base_seed, "cells": self.cells}
        if include_timing:
            timings = self.timings
            payload["timing"] = {
                "wall_time_s": timings,
                "total_wall_time_s": sum(timings),
            }
        return _canonical_pieces(payload)

    def to_json(self, include_timing: bool = False) -> str:
        """Canonical JSON: sorted keys, fixed layout, byte-identical for the
        same set of cells regardless of worker count or completion order —
        the stdlib's ``indent=2, sort_keys=True`` bytes, encoded a slice of
        flow rows at a time.  ``include_timing`` adds the (non-deterministic)
        per-cell wall times for profiling runs."""
        return "".join(self._json_pieces(include_timing))

    def write(self, path: str, include_timing: bool = False) -> None:
        """Persist the canonical view to ``path`` (trailing newline for POSIX
        tools), streamed piece by piece and atomically: a failed write leaves
        the file that was there."""
        write_atomic(path, itertools.chain(self._json_pieces(include_timing),
                                           ("\n",)))

    def write_jsonl(self, path: str) -> None:
        """Persist as a streaming-format JSONL file (see :meth:`load`)."""
        with ResultSetWriter(path, base_seed=self.base_seed) as writer:
            for record, wall in zip(self.cells, self.timings, strict=True):
                writer.write(record, wall_time_s=wall)

    @classmethod
    def load(cls, path: str) -> "ResultSet":
        """Reconstruct a prior run from ``path``.

        Accepts both the streaming JSONL layout written by
        :class:`ResultSetWriter` (detected by its header line) and the legacy
        monolithic JSON written by :meth:`write` — so pre-migration archives
        remain loadable.  Duplicate identities with identical payloads
        collapse to one record; conflicting payloads for the same identity
        are an error (the file mixes incompatible runs).
        """
        with open(path) as handle:
            # Non-blank lines, numbered as in the file, read one at a time.
            lines = ((lineno, line) for lineno, line in enumerate(handle, 1)
                     if line.strip())
            _, first = next(lines, (0, None))
            if first is None:
                raise ValueError(f"{path} is empty; not a result file")
            header: Any = None
            try:
                header = json.loads(first)
            except json.JSONDecodeError:
                pass  # multi-line canonical JSON: first line alone is not a value
            if not (isinstance(header, dict)
                    and header.get("format") == RESULTSET_FORMAT):
                handle.seek(0)
                try:
                    payload = json.load(handle)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{path} is neither a ResultSet JSONL stream nor "
                        f"canonical sweep JSON ({exc}); if a crash truncated "
                        f"the stream's header line, delete the file and rerun"
                    ) from None
                timings = payload.get("timing", {}).get("wall_time_s")
                return cls(payload["base_seed"], payload["cells"], timings)
            result = cls(base_seed=header["base_seed"])
            seen: Dict[str, Dict[str, Any]] = {}
            corrupt: Optional[int] = None
            for lineno, line in lines:
                if corrupt is not None:
                    raise ValueError(
                        f"{path}:{corrupt}: corrupt record line (not valid JSON)"
                    )
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # A crash mid-append leaves a truncated final line; the
                    # crash-restartable contract is that every *finished*
                    # cell stays recoverable, so the partial tail is dropped
                    # — an error only if another record follows it.
                    corrupt = lineno
                    continue
                wall = record.pop("wall_time_s", 0.0)
                key = cell_identity_key(record["cell"])
                if key not in seen:
                    seen[key] = record
                    result.append(record, wall)
                elif seen[key] != record:
                    raise ValueError(
                        f"{path}:{lineno}: conflicting results for one cell "
                        f"identity (the file mixes incompatible runs); "
                        f"identity: {key}"
                    )
        return result

    # -- queries --------------------------------------------------------------
    def find(self, **params: Any) -> List[Dict[str, Any]]:
        """Records whose identity matches every constraint (see :meth:`filter`)."""
        return [record for record in self.cells
                if _matches(record["cell"], params)]

    def filter(self, **params: Any) -> "ResultSet":
        """A sub-:class:`ResultSet` of the cells matching every constraint.

        Constraint values are compared for equality, or — when callable —
        applied as predicates: ``filter(scheme="pcc", loss_rate=lambda v: v > 0)``.
        """
        picked = [(record, wall)
                  for record, wall in zip(self.cells, self.timings, strict=True)
                  if _matches(record["cell"], params)]
        return ResultSet(
            self.base_seed,
            records=[record for record, _ in picked],
            timings=[wall for _, wall in picked],
        )

    def groupby(self, *keys: str) -> Dict[Any, "ResultSet"]:
        """Partition by identity key(s): ``{value_or_tuple: ResultSet}``.

        Group labels are the identity values themselves (a scalar for one key,
        a tuple for several); dict-valued identity entries such as
        ``topology_kwargs`` are labelled by their canonical JSON.  Groups
        appear in canonical cell order.
        """
        if not keys:
            raise ValueError("groupby needs at least one identity key")
        groups: Dict[Any, ResultSet] = {}
        for record, wall in zip(self.cells, self.timings, strict=True):
            identity = record["cell"]
            values = tuple(_group_value(identity.get(key)) for key in keys)
            label = values[0] if len(keys) == 1 else values
            groups.setdefault(label, ResultSet(self.base_seed)).append(record, wall)
        return groups

    def aggregate(
        self,
        metric: Union[str, Callable[[Dict[str, Any]], float]],
        by: Union[str, Sequence[str], None] = None,
        reduce: Callable[[List[float]], float] = statistics.mean,
    ) -> Union[float, Dict[Any, float]]:
        """Reduce a per-cell metric, optionally per identity group.

        ``metric`` is a flow summary key (summed across the cell's flows —
        ``"goodput_mbps"`` gives each cell's total goodput) or a callable over
        the full record.  Without ``by``, returns one reduced value over every
        cell; with ``by`` (an identity key or sequence of keys), returns
        ``{group_label: reduced_value}``.  ``reduce`` defaults to the mean.
        """
        if by is None:
            values = [self._metric_value(record, metric) for record in self.cells]
            if not values:
                raise ValueError("cannot aggregate an empty ResultSet")
            return reduce(values)
        keys = (by,) if isinstance(by, str) else tuple(by)
        return {
            label: group.aggregate(metric, reduce=reduce)
            for label, group in self.groupby(*keys).items()
        }

    @staticmethod
    def _metric_value(record: Dict[str, Any],
                      metric: Union[str, Callable[[Dict[str, Any]], float]]) -> float:
        if callable(metric):
            return float(metric(record))
        return float(sum(flow[metric] for flow in record["flows"]))

    def goodput_mbps(self, **params: Any) -> float:
        """Total goodput (Mbps, summed over flows) of the single matching cell.

        Zero and many matches raise distinct ``KeyError``s that name the
        parameters at fault: a zero-match error reports which constraint
        eliminated every cell (with the values actually present), a many-match
        error reports which identity parameters would disambiguate.
        """
        matches = self.find(**params)
        if len(matches) == 1:
            return float(sum(flow["goodput_mbps"] for flow in matches[0]["flows"]))
        if not matches:
            raise KeyError(self._no_match_message(params))
        raise KeyError(self._ambiguous_message(params, matches))

    def _no_match_message(self, params: Dict[str, Any]) -> str:
        if not self._records:
            return f"no cells match {params!r}: the result set is empty"
        culprits = []
        for key, want in sorted(params.items()):
            if callable(want):
                continue
            observed = sorted({repr(_group_value(record["cell"].get(key)))
                               for record in self._records})
            if repr(_group_value(want)) not in observed:
                culprits.append(f"{key}={want!r} (cells have: "
                                f"{', '.join(observed)})")
        detail = ("; no single cell satisfies the combination"
                  if not culprits else "; " + "; ".join(culprits))
        return f"no cells match {params!r}{detail}"

    def _ambiguous_message(self, params: Dict[str, Any],
                           matches: List[Dict[str, Any]]) -> str:
        differing = []
        keys = sorted({key for record in matches for key in record["cell"]})
        for key in keys:
            if key in params or key in _POSITIONAL_KEYS:
                continue
            values = {repr(_group_value(record["cell"].get(key)))
                      for record in matches}
            if len(values) > 1:
                differing.append(key)
        hint = (f"; add one of {differing} to the query to disambiguate"
                if differing else
                "; the matches differ only positionally (index/seed) — "
                "query by index instead")
        return (f"{len(matches)} cells match {params!r}, expected exactly 1"
                f"{hint}")

    # -- trajectory metrics ---------------------------------------------------
    @property
    def total_events(self) -> int:
        return int(sum(record["engine"]["events_processed"]
                       for record in self._records))

    @property
    def total_wall_time_s(self) -> float:
        return sum(self._timings)

    def events_per_second(self) -> float:
        """Aggregate simulator events per wall-clock second across all cells."""
        wall = self.total_wall_time_s
        return self.total_events / wall if wall > 0 else 0.0


class ResultSetWriter:
    """Append-as-they-complete JSONL persistence for sweep records.

    The first line is a header (``format`` tag + ``base_seed``); every later
    line is one cell record in canonical key order, carrying its
    ``wall_time_s``.  Each record is flushed immediately, so an interrupted
    sweep leaves a file from which :meth:`ResultSet.load` recovers every
    finished cell.  An existing file at ``path`` is replaced.
    """

    def __init__(self, path: str, base_seed: int) -> None:
        self.path = path
        self.base_seed = int(base_seed)
        self._handle = open(path, "w")
        self._write_line({"format": RESULTSET_FORMAT,
                          "base_seed": self.base_seed})

    def write(self, record: Dict[str, Any],
              wall_time_s: Optional[float] = None) -> None:
        """Append one cell record (flushed so crashes lose at most one line)."""
        if "cell" not in record:
            raise ValueError("a result record needs a 'cell' identity dict")
        line = dict(record)
        if wall_time_s is not None:
            line["wall_time_s"] = wall_time_s
        self._write_line(line)

    def _write_line(self, payload: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(payload, sort_keys=True))
        self._handle.write("\n")
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "ResultSetWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
