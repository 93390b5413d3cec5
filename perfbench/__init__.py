"""Layer-resolved benchmark harness for search_engines_ray (see README.md)."""
