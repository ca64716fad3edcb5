"""Transpilation-as-a-service tier: asyncio front-end over the batch engine."""

from repro.service.service import MirageService, ServiceClient

__all__ = ["MirageService", "ServiceClient"]
