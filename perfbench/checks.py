"""Correctness gates on one finished run, and the count of unparseable CSV cells."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re

MODELS = ("rl", "fnn", "cl")

# Text a writer is expected to put in a cell, by column name. Every other
# cell must be empty or parse as a number.
_LABELS = {
    "model": frozenset(MODELS),
    "slice": frozenset({"overall", "ap", "psn"}),
    "tercile": frozenset({"small", "medium", "large"}),
}
_CLAIM_NO = re.compile(r"^[A-Za-z0-9_.-]+$")


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _cell_ok(column: str, cell: str) -> bool:
    if cell == "" or _is_number(cell):
        return True
    if column == "claim_no":
        return bool(_CLAIM_NO.match(cell))
    return cell in _LABELS.get(column, ())


def count_bad_cells(path: str) -> int:
    """Cells of one CSV that are neither a number, nor empty, nor an expected label."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        bad = 0
        for row in rows:
            for column, cell in zip(header, row):
                if not _cell_ok(column, cell):
                    bad += 1
    return bad


def csv_files(out_dir: str) -> list[str]:
    found = []
    for root, _dirs, files in os.walk(out_dir):
        found.extend(os.path.join(root, f) for f in files if f.endswith(".csv"))
    return sorted(found)


def bytes_written(out_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, f))
        for root, _dirs, files in os.walk(out_dir)
        for f in files
    )


def output_digest(outputs: dict[str, str]) -> str:
    """One hash over the manifest's output hashes, independent of the output directory."""
    lines = "".join(f"{path}\t{h}\n" for path, h in sorted(outputs.items()))
    return hashlib.sha256(lines.encode()).hexdigest()[:16]


def ocl_ratios(manifest: dict) -> dict[str, float]:
    """Relative OCL per model from the manifest summaries (the first seed)."""
    summary = manifest["summaries"][0]
    return {
        m: float(summary[f"{m}_ratio"])
        for m in MODELS
        if summary.get(f"{m}_ratio") is not None
    }


def check_run(out_dir: str) -> tuple[list[str], dict]:
    """Gate one run's output directory.

    Returns the list of failures (empty when the run passes) and the
    manifest. A run passes when the manifest reached ``done`` and every
    output hash it lists recomputes from the file on disk.
    """
    path = os.path.join(out_dir, "manifest.json")
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"manifest unreadable: {exc}"], {}
    problems = []
    if manifest.get("stage_reached") != "done":
        problems.append(f"stage_reached is {manifest.get('stage_reached')!r}")
    outputs = manifest.get("outputs") or {}
    if not outputs:
        problems.append("manifest lists no outputs")
    for rel, expected in sorted(outputs.items()):
        target = os.path.join(out_dir, rel)
        if not os.path.isfile(target):
            problems.append(f"missing output {rel}")
        elif sha256_file(target) != expected:
            problems.append(f"hash mismatch for {rel}")
    if not manifest.get("summaries"):
        problems.append("manifest has no summaries")
    return problems, manifest
