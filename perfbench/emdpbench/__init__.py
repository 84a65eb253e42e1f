"""Benchmark of the emdp package: workloads, closed-loop harness and tracing."""
from .audit import AuditTiny
from .freq import FreqUnbounded
from .linear import LinearLocal

WORKLOADS = {cls.name: cls for cls in (FreqUnbounded, LinearLocal, AuditTiny)}
