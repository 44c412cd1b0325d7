//! # sag-sim — synthetic EMR world model and alert streams
//!
//! The SAG paper evaluates on a proprietary access log of a large academic
//! medical center: 10.75 million `⟨date, employee, patient⟩` accesses over 56
//! working days, run through a rule engine that flags suspicious accesses and
//! assigns each alert one of seven predefined types (Table 1 of the paper).
//! That log cannot be redistributed, so this crate provides the closest
//! synthetic equivalent:
//!
//! * a **world model** ([`population`], [`person`], [`names`], [`geo`]) of
//!   employees and patients with last names, departments and residential
//!   addresses;
//! * an **access generator** ([`access`]) producing `⟨employee, patient,
//!   time⟩` events with the diurnal intensity profile described in the paper
//!   (the bulk of activity between 08:00 and 17:00);
//! * the **alert rule engine** ([`rules`]) implementing the four base
//!   predicates (same last name, department co-worker, neighbor within half a
//!   mile, same residential address) and the combination typing that yields
//!   the seven alert types of Table 1;
//! * a **calibrated alert-stream generator** ([`stream`]) that reproduces the
//!   per-type daily mean/standard deviation of Table 1 directly, which is what
//!   the audit-game experiments consume;
//! * an in-memory **alert log store** ([`log`]) with a compact binary codec
//!   ([`binary`]).
//!
//! The audit-game algorithms in `sag-core` only ever observe the typed alert
//! stream and historical per-type arrival statistics, so matching the arrival
//! process is sufficient to exercise every code path that the real log would.

#![forbid(unsafe_code)]

pub mod access;
pub mod alert;
pub mod binary;
pub mod geo;
pub mod log;
pub mod names;
pub mod person;
pub mod population;
pub mod rng;
pub mod rules;
pub mod stream;
pub mod time;

pub use alert::{Alert, AlertCatalog, AlertTypeId, AlertTypeInfo, BaseRule, RuleSet};
pub use log::{AlertLog, DayLog};
pub use stream::{ArrivalProcess, DiurnalProfile, StreamConfig, StreamGenerator, VolumeTrend};
pub use time::{TimeOfDay, SECONDS_PER_DAY};
