"""Byzantine Agreement substrate: oral, signed, extended, degradable.

* :mod:`repro.agreement.oral` — OM(t)/EIG, the non-authenticated classic
  (needs ``n > 3t``);
* :mod:`repro.agreement.signed` — SM(t), authenticated agreement
  (any ``t <= n - 2``);
* :mod:`repro.agreement.extension` — Failure Discovery extended to full
  BA at FD's failure-free message cost (the Hadzilacos-Halpern property
  the paper leans on);
* :mod:`repro.agreement.degradable` — the Vaidya-Pradhan-flavoured
  future-work direction the paper's summary mentions.
"""

from .degradable import (
    OUTPUT_DEGRADED,
    DegradableSignedAgreement,
    make_degradable_protocols,
)
from .extension import (
    ALARM_BODY,
    ALARM_MSG,
    OUTPUT_FD_DISCOVERY,
    OUTPUT_PATH,
    ExtendedAgreementProtocol,
    make_extended_protocols,
)
from .eigtree import RleReport, SuccinctEigStore
from .oral import (
    OM_REPORT,
    OM_VALUE,
    OralAgreementProtocol,
    make_oral_agreement_protocols,
)
from .problem import DEFAULT_VALUE, BAEvaluation, evaluate_ba
from .signed import (
    SM_MSG,
    SignedAgreementProtocol,
    make_signed_agreement_protocols,
)

__all__ = [
    "ALARM_BODY",
    "ALARM_MSG",
    "BAEvaluation",
    "DEFAULT_VALUE",
    "DegradableSignedAgreement",
    "ExtendedAgreementProtocol",
    "OM_REPORT",
    "OM_VALUE",
    "RleReport",
    "SuccinctEigStore",
    "OUTPUT_DEGRADED",
    "OUTPUT_FD_DISCOVERY",
    "OUTPUT_PATH",
    "OralAgreementProtocol",
    "SM_MSG",
    "SignedAgreementProtocol",
    "evaluate_ba",
    "make_degradable_protocols",
    "make_extended_protocols",
    "make_oral_agreement_protocols",
    "make_signed_agreement_protocols",
]
