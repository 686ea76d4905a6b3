"""repro — a full reproduction of Pimba (MICRO 2025).

Pimba is a Processing-in-Memory accelerator for serving post-transformer
LLMs (state space models, linear attention, RNNs) alongside classic
transformers.  This library rebuilds the paper's whole stack in Python:

* ``repro.quant``     — int8/fp8/MX8 storage formats + MX datapath (Fig. 9)
* ``repro.dram``      — HBM timing and organization (Table 1) and DRAM
                        energy coefficients
* ``repro.core``      — the Pimba accelerator: SPU/SPE, access interleaving,
                        data layout, attention mode, and the closed-form
                        command schedule every PIM cycle comes from
* ``repro.models``    — functional Mamba-2 / GLA / RetNet / HGRN2 / Zamba2 /
                        OPT models built on the generalized state update op
* ``repro.perf``      — GPU roofline, full-system models (GPU, GPU+Q,
                        GPU+PIM, Pimba, NeuPIMs), energy
* ``repro.hw``        — gate-level area/power models (Fig. 6, Table 3)
* ``repro.accuracy``  — synthetic-LM perplexity/accuracy harness (Fig. 4,
                        Table 2)
* ``repro.workloads`` — batched serving-loop workload generator
* ``repro.serving``   — request-level serving simulator: schedulers, paged
                        KV memory, routed clusters, the prefix tier
* ``repro.experiments`` — parallel, cached experiment engine behind the
                        figure sweeps and the ``repro`` CLI
"""

__version__ = "1.1.0"
