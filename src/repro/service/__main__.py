"""``python -m repro.service`` — serve the line-JSON experiment API.

Reads one JSON request object per line from stdin and writes one JSON
response object per line to stdout, with job lifecycle events
interleaved (every line is a self-describing object; responses carry
``"ok"``, events carry ``"event"``).  See :mod:`repro.service.protocol`
for the op vocabulary.

Modes:

- default — serve until stdin closes or a ``shutdown`` op arrives;
- ``--drain`` — re-adopt the journal's open jobs, run them to
  completion, print one summary object, and exit (the restart half of
  the crash-recovery drill: kill the service mid-batch, then
  ``python -m repro.service --journal-dir D --drain``).

Example::

    printf '%s\n' \\
        '{"op": "submit", "request": {"experiment_id": "fig05", "scale": 0.25}}' \\
        '{"op": "drain"}' '{"op": "shutdown"}' \\
      | python -m repro.service --slots 2 --journal-dir runs/svc
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Any, Dict, Optional

from repro.service.core import ExperimentService, ServiceConfig
from repro.service.protocol import LineProtocol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve the experiment job API over line-JSON stdio.")
    parser.add_argument("--slots", type=int, default=2,
                        help="worker slots (default: 2)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-attempt timeout in seconds")
    parser.add_argument("--retries", type=int, default=1,
                        help="retries per invocation (default: 1)")
    parser.add_argument("--journal-dir", default=None,
                        help="journal directory for crash-safe "
                             "resumption (default: off)")
    parser.add_argument("--no-result-cache", action="store_true",
                        help="disable the content-addressed result "
                             "cache (disables coalescing reuse too)")
    parser.add_argument("--drain", action="store_true",
                        help="re-adopt journaled open jobs, run them "
                             "to completion, print a summary, exit")
    return parser


def config_from_args(args: argparse.Namespace) -> ServiceConfig:
    return ServiceConfig(
        slots=args.slots, timeout=args.timeout, retries=args.retries,
        journal_dir=args.journal_dir,
        use_result_cache=not args.no_result_cache)


def _write(payload: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


async def _pump_events(service: ExperimentService) -> None:
    assert service.events is not None
    while True:
        event = await service.events.get()
        _write(event)


async def _read_line(loop: asyncio.AbstractEventLoop) -> Optional[str]:
    line = await loop.run_in_executor(None, sys.stdin.readline)
    return line if line else None


async def serve(config: ServiceConfig) -> int:
    """Interactive mode: one request line in, one response line out."""
    service = ExperimentService(config)
    await service.start()
    protocol = LineProtocol(service)
    pump = asyncio.ensure_future(_pump_events(service))
    loop = asyncio.get_running_loop()
    try:
        while not protocol.closing:
            line = await _read_line(loop)
            if line is None:
                break
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError as exc:
                _write({"ok": False, "op": None,
                        "error": {"code": "parse",
                                  "message": f"invalid JSON: {exc}"}})
                continue
            _write(await protocol.handle(payload))
    finally:
        pump.cancel()
        if not protocol.closing:
            await service.close()
    return 0


async def drain(config: ServiceConfig) -> int:
    """Restart mode: re-adopt the journal, finish it, summarize."""
    if config.journal_dir is None:
        print("--drain requires --journal-dir", file=sys.stderr)
        return 2
    service = ExperimentService(config)
    await service.start()
    try:
        jobs = await service.drain()
    finally:
        await service.close()
    summaries = [job.summary() for job in jobs]
    failed = [s for s in summaries
              if s["record"]["status"] not in
              ("ok", "retried", "cached", "verified")]
    _write({"ok": not failed, "op": "drain", "jobs": summaries,
            "failed": len(failed)})
    return 1 if failed else 0


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2 before stdin is read
    if args.drain:
        return asyncio.run(drain(config))
    return asyncio.run(serve(config))


if __name__ == "__main__":
    sys.exit(main())
