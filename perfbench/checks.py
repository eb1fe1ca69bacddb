"""Correctness checks on what a sink received, made outside every timed region.

The sink's output is read back (the file sink with `parse_action`, the
bulk endpoint's received requests document by document) into one
`Record` per interval. Each record must stand in its interval's place in
publish order and agree with a verdict recomputed by the batch
`VaeStabilityDetector.predict` of the model published for its container;
a drift record must carry exactly the trace's events for its interval.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Record:
    container: str
    interval: int
    start: float
    kind: str
    stable: bool | None
    threshold: float | None
    recon_error: float | None
    events: tuple | None  # (t, syscall, pid, ret, bytes) per event


@dataclass(frozen=True)
class Expected:
    kind: str
    stable: bool | None = None
    threshold: float | None = None
    recon_error: float | None = None


def _row(event) -> tuple:
    return (event.timestamp, event.syscall, event.pid, event.result, event.arg_bytes)


def read_file_records(path: Path) -> list[Record | None]:
    """One record per line of a FileSink output; None where a line does not parse."""
    from vaeguard.publisher import parse_action

    records: list[Record | None] = []
    with open(path, "rb") as fh:
        for line in fh:
            try:
                action = parse_action(line)
            # PublishAction rejects an inconsistent record with an assertion.
            except (ValueError, KeyError, TypeError, AssertionError):
                records.append(None)
                continue
            latent, verdict = action.latent, action.verdict
            records.append(
                Record(
                    container=action.key.container_id,
                    interval=action.key.interval_index,
                    start=action.key.start,
                    kind=action.mode.value,
                    stable=None if verdict is None else verdict.stable,
                    threshold=None if verdict is None else verdict.threshold,
                    recon_error=None if latent is None else latent.recon_error,
                    events=None if action.forensics is None
                    else tuple(_row(e) for e in action.forensics),
                )
            )
    return records


def read_bulk_records(path: Path, latent_index: str, forensics_index: str) -> list[Record | None]:
    """Records from bulk requests: a head document per action, then its events."""
    lines = path.read_bytes().split(b"\n") if path.exists() else []
    records: list[Record | None] = []
    head = None
    rows: list[tuple] = []

    def close():
        if head is not None:
            if head is False:
                records.append(None)
            else:
                forensic = rows or head["kind"] == "latent_forensics"
                records.append(Record(**head, events=tuple(rows) if forensic else None))

    for meta_line, source_line in zip(lines[0::2], lines[1::2]):
        try:
            index = json.loads(meta_line)["index"]["_index"]
            source = json.loads(source_line)
            if index == latent_index:
                close()
                head = {
                    "container": source["container"],
                    "interval": source["interval"],
                    "start": source["interval_start"],
                    "kind": source["kind"],
                    "stable": source.get("stable"),
                    "threshold": source.get("threshold"),
                    "recon_error": source.get("recon_error"),
                }
                rows = []
            elif index == forensics_index and head:
                if (source["container"], source["interval"]) != (head["container"], head["interval"]):
                    head = False
                    continue
                rows.append((source["t"], source["syscall"], source["pid"], source["ret"], source["bytes"]))
            else:
                head = False
        except (ValueError, KeyError, TypeError):
            head = False
    close()
    return records


def expected_outputs(rows, models: dict, preinstalled: bool, accumulation_target: int) -> list[Expected]:
    """What each interval's record must say, in publish order.

    Containers without a pre-installed model accumulate their first
    `accumulation_target` intervals; every other interval is scored by the
    batch `predict` of the model published for its container.
    """
    from vaeguard.summarize import vectors_to_matrix

    expected: list[Expected | None] = [None] * len(rows)
    scored: dict[str, list[int]] = {}
    seen: dict[str, int] = {}
    for position, (key, _events, _vector) in enumerate(rows):
        container = key.container_id
        seen[container] = seen.get(container, 0) + 1
        if not preinstalled and seen[container] <= accumulation_target:
            expected[position] = Expected("accumulating")
        else:
            scored.setdefault(container, []).append(position)
    for container, positions in scored.items():
        model = models[container]
        matrix = vectors_to_matrix([rows[p][2] for p in positions])
        verdicts = model.predict(matrix)
        errors = model.score_samples(matrix)
        for position, verdict, error in zip(positions, verdicts, errors):
            stable = bool(verdict == 1)
            expected[position] = Expected(
                "latent" if stable else "latent_forensics", stable, model.threshold_, float(error)
            )
    return expected  # type: ignore[return-value]


def _close(published: float | None, exact: float | None) -> bool:
    # Published floats carry 8 significant digits.
    if published is None or exact is None:
        return published is None and exact is None
    if not math.isfinite(exact):
        return not math.isfinite(published)
    return math.isclose(published, exact, rel_tol=1e-6, abs_tol=1e-12)


def _mismatch(record: Record | None, key, events, expect: Expected) -> str | None:
    if record is None:
        return "record does not parse"
    if (record.container, record.interval) != (key.container_id, key.interval_index):
        return f"record for {record.container}/{record.interval} out of place"
    if record.start != key.start:
        return "interval start differs"
    if record.kind != expect.kind:
        return f"published {record.kind}, expected {expect.kind}"
    if record.stable != expect.stable:
        return f"published stable={record.stable}, batch predict says {expect.stable}"
    if not _close(record.threshold, expect.threshold):
        return "threshold differs from the model's"
    if not _close(record.recon_error, expect.recon_error):
        return "reconstruction error differs from the batch score"
    wanted = tuple(_row(e) for e in events) if expect.kind == "latent_forensics" else None
    if record.events != wanted:
        return "forensic events differ from the trace's events for the interval"
    return None


def check_records(records: list[Record | None], rows, expected: list[Expected]) -> dict[int, str]:
    """Failed interval positions, each with its reason."""
    failed: dict[int, str] = {}
    for position, ((key, events, _vector), expect) in enumerate(zip(rows, expected)):
        record = records[position] if position < len(records) else None
        reason = _mismatch(record, key, events, expect)
        if reason is not None:
            failed[position] = f"{key.container_id}/{key.interval_index}: {reason}"
    if len(records) > len(rows) and rows:
        failed.setdefault(len(rows) - 1, f"{len(records) - len(rows)} records beyond the last interval")
    return failed


def corrupt_one_record(path: Path, first: int) -> None:
    """Self-test hook: turn `"stable":true` into `"stable":null` in the first
    record at or after position `first` that has it. The length is kept, so
    byte counts still agree and only the record check can notice."""
    data = path.read_bytes()
    needle = b'"stable":true'
    lines = data.split(b"\n")
    if path.suffix == ".bulk":
        # Bulk requests hold two lines per document; count head documents only.
        heads = [i + 1 for i in range(0, len(lines) - 1, 2) if b'"kind"' in lines[i + 1]]
    else:
        heads = list(range(len(lines)))
    for line_no in heads[first:]:
        if needle in lines[line_no]:
            lines[line_no] = lines[line_no].replace(needle, b'"stable":null', 1)
            path.write_bytes(b"\n".join(lines))
            return
    raise ValueError("no stable record to corrupt")
