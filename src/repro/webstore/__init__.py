"""Synthetic web sources: paginated sites served through a cost-charging
HTTP simulator (the stand-in for the paper's live Web sources)."""

from .site import (
    FetchStats,
    HttpSimulator,
    WebError,
    WebSite,
    make_catalog_site,
)

__all__ = ["WebSite", "HttpSimulator", "FetchStats", "WebError",
           "make_catalog_site"]
