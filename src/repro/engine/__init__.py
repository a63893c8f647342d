"""Exploration engines: sequential, parallel, random-walk.

Public surface:

* :class:`EngineSpec` / :func:`resolve_engine` — choose and configure
  an engine; every exploration entry point accepts the result (or its
  string spelling) as ``engine=``;
* :func:`canonical_bytes` / :func:`canonical_digest` — process-stable
  structural state hashing.
"""

from .api import (
    PARALLEL,
    RANDOM_WALK,
    SEQUENTIAL,
    EngineSpec,
    resolve_engine,
)
from .canonical import canonical_bytes, canonical_digest

__all__ = [
    "SEQUENTIAL",
    "PARALLEL",
    "RANDOM_WALK",
    "EngineSpec",
    "resolve_engine",
    "canonical_bytes",
    "canonical_digest",
]
