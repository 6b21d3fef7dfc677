"""The worker side of the service: pure request execution.

:func:`compute_result` is the one function a worker runs — canonical
request in, plain JSON result out, no shared state — so the dispatcher
can execute it inline (``jobs=1``), or ship whole batches of deduplicated
requests to a :class:`multiprocessing.Pool` (``jobs>1``) and merge the
results in task order.  Mirrors the explorer's
:func:`~repro.roundelim.explore.store.compute_step` contract: stateless,
picklable-argument-only, failures returned as data.

A failed request is a *result* (``{"ok": False, "code", "message"}``),
never a worker crash: the dispatcher must be able to resolve every
waiting requester and keep serving.
"""

from __future__ import annotations

import json

from repro import api
from repro.api.errors import error_code
from repro.roundelim.explore.store import compute_step


def compute_result(canonical: dict) -> dict:
    """Execute one canonical request; return ``{"ok", ...}`` JSON.

    For ``solve`` the record is ``json.loads(report.canonical_json())``
    — already in canonical JSON shape, so re-serializing it anywhere
    downstream reproduces the direct façade bytes.  For ``roundelim``
    the record is the store's operator-outcome shape (``status``,
    ``child`` digest, ``child_payload``), with budget exhaustion as an
    outcome rather than an error.
    """
    try:
        if canonical["kind"] == "solve":
            report = api.solve(
                canonical["problem"],
                algorithm=canonical["algorithm"],
                engine=canonical["engine"],
                n=canonical["n"],
                seed=canonical["seed"],
                max_rounds=canonical["max_rounds"],
                check=canonical["check"],
                **canonical["options"],
            )
            record = json.loads(report.canonical_json())
        else:
            record = compute_step(
                canonical["problem"],
                canonical["op"],
                canonical["budget"],
                canonical["engine"],
            )
        return {"ok": True, "kind": canonical["kind"], "record": record}
    except Exception as error:  # noqa: BLE001 - failures are results
        return {
            "ok": False,
            "code": error_code(error),
            "message": f"{type(error).__name__}: {error}",
        }

