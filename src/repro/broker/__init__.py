"""Platform broker and parallel sweep engine.

Two halves of one question — *run what, where, how*:

* the **assembly broker** (:mod:`repro.broker.assembly`) searches the
  platform portfolio for cost/deadline/risk-ranked placements;
* the **sweep engine** (:mod:`repro.broker.engine`) executes registered
  paper artifacts as a cached, observable, optionally parallel point
  sweep, behind :func:`repro.run`.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.broker.assembly": (
        "BrokerRequest",
        "ElasticBroker",
        "broker_assemblies",
        "render_broker_report",
        "volatile_market_request",
    ),
    "repro.broker.cache": ("SweepCache", "code_fingerprint"),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
