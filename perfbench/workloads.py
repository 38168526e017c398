"""Workload registry: name -> module."""

import replay_paper
import serve_paper

WORKLOADS = {m.NAME: m for m in (serve_paper, replay_paper)}


def by_name(name: str):
    return WORKLOADS[name]
