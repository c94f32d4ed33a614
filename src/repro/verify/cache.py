"""Content-digest cache for explored verification verdicts.

Verifying the full REGISTRY+VARIANTS universe re-explores identical
models on every run; a warm `repro verify` should be near-instant
(CI enforces <2s in ``benchmarks/test_bench_verify.py``).  The cache
keeps three rules:

* a *generation* directory named by a salt folding the Python version
  and a content digest over every package whose source determines the
  verdict (``mplib`` models, ``verify`` itself, the shared ``check``
  extraction layer, ``faults`` wire semantics, the ``net``/``sim``
  replay substrate) — editing any of them abandons the generation;
* inside a generation, entries are keyed by a SHA-256 over the
  canonicalized exploration request (library name, spec contents,
  sizes, hop bound, fault sweep flag);
* entries are JSON, written atomically (temp file + rename) and
  treated as misses when corrupt — the cache can only ever make a
  verify pass faster, never wrong.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

_CACHE_VERSION = "repro-verify-v1"

#: Source packages whose content invalidates cached verdicts.
SALT_PACKAGES = ("mplib", "verify", "check", "faults", "net", "sim")


def verify_cache_salt() -> str:
    """Generation tag: cache version + Python + source digest."""
    from repro.exec.fingerprint import source_digest

    tag = f"{_CACHE_VERSION}-py{sys.version_info[0]}.{sys.version_info[1]}"
    digest = source_digest(packages=SALT_PACKAGES)
    return f"{tag}+{digest[:16]}" if digest else tag


def entry_key(
    library: str,
    spec: object,
    sizes: tuple[int, ...],
    hop_bound: int,
    check_faults: bool,
    *,
    with_replay: bool = True,
) -> str:
    """Content key of one exploration request.

    ``with_replay`` is part of the key because it shapes the stored
    verdict: counterexamples found with replay confirmation carry
    engine traces that a replay-less exploration does not, and a
    cached replay-less verdict must never satisfy a caller asking for
    confirmed ones.
    """
    from repro.exec.fingerprint import canonicalize

    blob = canonicalize({
        "library": library,
        "spec": spec,
        "sizes": list(sizes),
        "hop_bound": hop_bound,
        "check_faults": check_faults,
        "with_replay": with_replay,
    })
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class VerdictCache:
    """On-disk JSON store of per-(library, spec, sizes) verdicts."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.generation = self.root / verify_cache_salt()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.generation / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not isinstance(data, dict):
            self.misses += 1
            return None
        self.hits += 1
        return data

    def put(self, key: str, verdict: dict) -> None:
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(verdict, fh, separators=(",", ":"))
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only or full cache directory degrades to a miss
            # on the next run; it must never fail the verification.
            pass
