"""Global quantum discord for multi-qubit density operators.

Library layout:

- :mod:`gqd.core` — density operators, partial trace, entropies.
- :mod:`gqd.measurement` — projective product bases and dephasing channels.
- :mod:`gqd.correlations` — mutual information, discord, global discord.
- :mod:`gqd.states` — GHZ / Werner-GHZ oracle states and random states.
- :mod:`gqd.ashkin_teller` — spin-chain ground states and criticality scans.
- :mod:`gqd.cli` — command-line interface (``gqd``).
"""
from .core import (
    DensityOperator,
    SubsystemDims,
    eig_hermitian,
    kron,
    partial_trace,
    reduced_from_vector,
    relative_entropy,
    von_neumann_entropy,
)
from .measurement import (
    LocalBasis,
    ProductBasis,
    QubitBasisAngles,
    all_x,
    all_z,
    dephase,
    local_dephase,
    qubit_basis,
    reduced_eigenbasis,
    sigma_x_basis,
    sigma_z_basis,
)
from .correlations import (
    GqdResult,
    discord_asymmetric,
    gqd,
    gqd_at_basis,
    measured_conditional_entropy,
    mutual_information,
    symmetric_discord,
)
from .states import (
    bell,
    ghz,
    ghz_dephased_spectrum,
    ghz_surface,
    random_density,
    werner,
    werner_ghz,
    werner_ghz_gqd_analytic,
)
from .ashkin_teller import (
    ChainSpec,
    ScanResult,
    SpinGroup,
    build_hamiltonian,
    gqd_scan,
    ground_state,
    pairwise_discord_scan,
    parity_operators,
    reduce_to_group,
)

__version__ = "0.1.0"
