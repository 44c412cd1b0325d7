//! Game model: payoff structures, audit costs and game configuration.
//!
//! Payoff conventions follow the paper: for a *victim* alert (one that
//! corresponds to an actual attack) of type `t`,
//!
//! * if the auditor audits it ("covered"), the auditor receives `U^t_{d,c}`
//!   and the attacker `U^t_{a,c}`;
//! * if she does not ("uncovered"), they receive `U^t_{d,u}` and `U^t_{a,u}`.
//!
//! The model assumes `U^t_{a,c} < 0 < U^t_{a,u}` (attacks pay off only when
//! unaudited) and `U^t_{d,c} ≥ 0 > U^t_{d,u}` (the auditor gains by catching
//! and loses by missing).

use crate::{ConfigError, Result};
use sag_sim::{AlertCatalog, AlertTypeId};

/// Payoffs of a single alert type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Payoffs {
    /// Auditor's utility when the victim alert is audited (`U_{d,c} ≥ 0`).
    pub auditor_covered: f64,
    /// Auditor's utility when the victim alert is missed (`U_{d,u} < 0`).
    pub auditor_uncovered: f64,
    /// Attacker's utility when his alert is audited (`U_{a,c} < 0`).
    pub attacker_covered: f64,
    /// Attacker's utility when his alert is not audited (`U_{a,u} > 0`).
    pub attacker_uncovered: f64,
}

impl Payoffs {
    /// Construct a payoff structure.
    #[must_use]
    pub fn new(
        auditor_covered: f64,
        auditor_uncovered: f64,
        attacker_covered: f64,
        attacker_uncovered: f64,
    ) -> Self {
        Payoffs {
            auditor_covered,
            auditor_uncovered,
            attacker_covered,
            attacker_uncovered,
        }
    }

    /// Check the sign assumptions of the model.
    pub fn validate(&self) -> Result<()> {
        let ok = self.auditor_covered >= 0.0
            && self.auditor_uncovered < 0.0
            && self.attacker_covered < 0.0
            && self.attacker_uncovered > 0.0
            && [
                self.auditor_covered,
                self.auditor_uncovered,
                self.attacker_covered,
                self.attacker_uncovered,
            ]
            .iter()
            .all(|v| v.is_finite());
        if ok {
            Ok(())
        } else {
            Err(ConfigError::PayoffSigns { payoffs: *self }.into())
        }
    }

    /// Auditor's expected utility against an attack on this type when the
    /// alert is audited with probability `theta`.
    #[must_use]
    pub fn auditor_expected(&self, theta: f64) -> f64 {
        theta * self.auditor_covered + (1.0 - theta) * self.auditor_uncovered
    }

    /// Attacker's expected utility when his alert is audited with probability
    /// `theta`.
    #[must_use]
    pub fn attacker_expected(&self, theta: f64) -> f64 {
        theta * self.attacker_covered + (1.0 - theta) * self.attacker_uncovered
    }

    /// The condition of Theorem 3: `U_{a,c}·U_{d,u} − U_{d,c}·U_{a,u} > 0`.
    ///
    /// Equivalently `−U_{a,c}/U_{a,u} > −U_{d,c}/U_{d,u}`: the attacker's
    /// penalty-to-gain ratio exceeds the auditor's gain-to-loss ratio, which
    /// the paper notes is "often naturally satisfied" in application domains.
    /// When it holds, the optimal signaling scheme never audits silently
    /// (`p0 = 0`).
    #[must_use]
    pub fn satisfies_theorem3_condition(&self) -> bool {
        self.attacker_covered * self.auditor_uncovered
            - self.auditor_covered * self.attacker_uncovered
            > 0.0
    }

    /// Coverage probability that makes the attacker indifferent between
    /// attacking and not (`attacker_expected(θ) = 0`), clamped to `[0, 1]`.
    #[must_use]
    pub fn deterrence_threshold(&self) -> f64 {
        let theta = self.attacker_uncovered / (self.attacker_uncovered - self.attacker_covered);
        theta.clamp(0.0, 1.0)
    }
}

/// Payoff structures for every alert type in play.
#[derive(Debug, Clone, PartialEq)]
pub struct PayoffTable {
    payoffs: Vec<Payoffs>,
}

impl PayoffTable {
    /// Build a table from per-type payoffs (indexed by [`AlertTypeId`]).
    #[must_use]
    pub fn new(payoffs: Vec<Payoffs>) -> Self {
        PayoffTable { payoffs }
    }

    /// The paper's Table 2: payoffs for the seven alert types of Table 1, as
    /// elicited from a domain expert.
    #[must_use]
    pub fn paper_table2() -> Self {
        // Rows of Table 2: Ud,c / Ud,u / Ua,c / Ua,u per type 1..=7.
        let rows: [(f64, f64, f64, f64); 7] = [
            (100.0, -400.0, -2000.0, 400.0),
            (150.0, -500.0, -2250.0, 400.0),
            (150.0, -600.0, -2500.0, 450.0),
            (300.0, -800.0, -2500.0, 600.0),
            (400.0, -1000.0, -3000.0, 650.0),
            (600.0, -1500.0, -5000.0, 700.0),
            (700.0, -2000.0, -6000.0, 800.0),
        ];
        PayoffTable {
            payoffs: rows
                .iter()
                .map(|&(dc, du, ac, au)| Payoffs::new(dc, du, ac, au))
                .collect(),
        }
    }

    /// The single-type table used by the Figure 2 experiment (type 1, *Same
    /// Last Name*).
    #[must_use]
    pub fn paper_single_type() -> Self {
        PayoffTable {
            payoffs: vec![Self::paper_table2().payoffs[0]],
        }
    }

    /// Number of alert types.
    #[must_use]
    pub fn len(&self) -> usize {
        self.payoffs.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.payoffs.is_empty()
    }

    /// Payoffs of a type.
    #[must_use]
    pub fn get(&self, id: AlertTypeId) -> &Payoffs {
        &self.payoffs[id.index()]
    }

    /// All payoffs ordered by type id.
    #[must_use]
    pub fn all(&self) -> &[Payoffs] {
        &self.payoffs
    }

    /// The largest payoff magnitude in the table (0 for an empty table):
    /// the scale that relative tolerances on utilities are taken against.
    #[must_use]
    pub fn magnitude(&self) -> f64 {
        self.payoffs
            .iter()
            .flat_map(|p| {
                [
                    p.auditor_covered,
                    p.auditor_uncovered,
                    p.attacker_covered,
                    p.attacker_uncovered,
                ]
            })
            .fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Validate every row.
    pub fn validate(&self) -> Result<()> {
        if self.payoffs.is_empty() {
            return Err(ConfigError::EmptyPayoffTable.into());
        }
        for p in &self.payoffs {
            p.validate()?;
        }
        Ok(())
    }
}

/// Full configuration of a Signaling Audit Game.
#[derive(Debug, Clone, PartialEq)]
pub struct GameConfig {
    /// Alert catalogue (types, Table 1 statistics).
    pub catalog: AlertCatalog,
    /// Payoff structures per type (Table 2).
    pub payoffs: PayoffTable,
    /// Audit cost `V^t` per type (the paper's experiments use 1 for all).
    pub audit_costs: Vec<f64>,
    /// Total audit budget per cycle (paper: 20 for the single-type
    /// experiment, 50 for the 7-type experiment).
    pub budget: f64,
}

impl GameConfig {
    /// The paper's single-type configuration (Figure 2): *Same Last Name*
    /// alerts, unit audit cost, budget 20.
    #[must_use]
    pub fn paper_single_type() -> Self {
        GameConfig {
            catalog: AlertCatalog::single_type(),
            payoffs: PayoffTable::paper_single_type(),
            audit_costs: vec![1.0],
            budget: 20.0,
        }
    }

    /// The paper's multi-type configuration (Figure 3): all seven types of
    /// Table 1, unit audit costs, budget 50.
    #[must_use]
    pub fn paper_multi_type() -> Self {
        GameConfig {
            catalog: AlertCatalog::paper_table1(),
            payoffs: PayoffTable::paper_table2(),
            audit_costs: vec![1.0; 7],
            budget: 50.0,
        }
    }

    /// Number of alert types.
    #[must_use]
    pub fn num_types(&self) -> usize {
        self.payoffs.len()
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<()> {
        self.payoffs.validate()?;
        if self.catalog.len() != self.payoffs.len() {
            return Err(ConfigError::LengthMismatch {
                what: "alert catalog",
                expected: self.payoffs.len(),
                got: self.catalog.len(),
            }
            .into());
        }
        if self.audit_costs.len() != self.payoffs.len() {
            return Err(ConfigError::LengthMismatch {
                what: "audit costs",
                expected: self.payoffs.len(),
                got: self.audit_costs.len(),
            }
            .into());
        }
        if let Some(index) = self
            .audit_costs
            .iter()
            .position(|v| !v.is_finite() || *v <= 0.0)
        {
            return Err(ConfigError::InvalidAuditCost {
                index,
                value: self.audit_costs[index],
            }
            .into());
        }
        if !self.budget.is_finite() || self.budget < 0.0 {
            return Err(ConfigError::InvalidBudget { value: self.budget }.into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper_constants() {
        let table = PayoffTable::paper_table2();
        assert_eq!(table.len(), 7);
        let t1 = table.get(AlertTypeId(0));
        assert_eq!(t1.auditor_covered, 100.0);
        assert_eq!(t1.auditor_uncovered, -400.0);
        assert_eq!(t1.attacker_covered, -2000.0);
        assert_eq!(t1.attacker_uncovered, 400.0);
        let t7 = table.get(AlertTypeId(6));
        assert_eq!(t7.auditor_covered, 700.0);
        assert_eq!(t7.attacker_covered, -6000.0);
        assert!(table.validate().is_ok());
    }

    #[test]
    fn all_paper_types_satisfy_theorem3_condition() {
        for p in PayoffTable::paper_table2().all() {
            assert!(p.satisfies_theorem3_condition(), "payoffs {p:?}");
        }
    }

    #[test]
    fn expected_utilities_are_linear_in_theta() {
        let p = Payoffs::new(100.0, -400.0, -2000.0, 400.0);
        assert_eq!(p.auditor_expected(0.0), -400.0);
        assert_eq!(p.auditor_expected(1.0), 100.0);
        assert_eq!(p.attacker_expected(0.0), 400.0);
        assert_eq!(p.attacker_expected(1.0), -2000.0);
        // Midpoint.
        assert!((p.auditor_expected(0.5) - (-150.0)).abs() < 1e-12);
        assert!((p.attacker_expected(0.5) - (-800.0)).abs() < 1e-12);
    }

    #[test]
    fn deterrence_threshold_zeroes_attacker_utility() {
        for p in PayoffTable::paper_table2().all() {
            let theta = p.deterrence_threshold();
            assert!((0.0..=1.0).contains(&theta));
            assert!(p.attacker_expected(theta).abs() < 1e-9);
            // More coverage than the threshold deters.
            assert!(p.attacker_expected(theta + 0.01) < 0.0);
        }
    }

    #[test]
    fn payoff_validation_rejects_wrong_signs() {
        assert!(Payoffs::new(100.0, -400.0, -2000.0, 400.0)
            .validate()
            .is_ok());
        assert!(Payoffs::new(-1.0, -400.0, -2000.0, 400.0)
            .validate()
            .is_err());
        assert!(Payoffs::new(100.0, 400.0, -2000.0, 400.0)
            .validate()
            .is_err());
        assert!(Payoffs::new(100.0, -400.0, 2000.0, 400.0)
            .validate()
            .is_err());
        assert!(Payoffs::new(100.0, -400.0, -2000.0, -400.0)
            .validate()
            .is_err());
        assert!(Payoffs::new(f64::NAN, -400.0, -2000.0, 400.0)
            .validate()
            .is_err());
    }

    #[test]
    fn game_config_paper_defaults_validate() {
        let single = GameConfig::paper_single_type();
        assert!(single.validate().is_ok());
        assert_eq!(single.num_types(), 1);
        assert_eq!(single.budget, 20.0);

        let multi = GameConfig::paper_multi_type();
        assert!(multi.validate().is_ok());
        assert_eq!(multi.num_types(), 7);
        assert_eq!(multi.budget, 50.0);
        assert_eq!(multi.audit_costs, vec![1.0; 7]);
    }

    #[test]
    fn game_config_validation_catches_mismatches() {
        let mut bad = GameConfig::paper_multi_type();
        bad.audit_costs.pop();
        assert!(matches!(
            bad.validate(),
            Err(crate::SagError::InvalidConfig(
                ConfigError::LengthMismatch {
                    what: "audit costs",
                    ..
                }
            ))
        ));

        let mut bad = GameConfig::paper_multi_type();
        bad.audit_costs[0] = 0.0;
        assert!(bad.validate().is_err());

        let mut bad = GameConfig::paper_multi_type();
        bad.budget = -5.0;
        assert!(bad.validate().is_err());

        let mut bad = GameConfig::paper_multi_type();
        bad.payoffs = PayoffTable::paper_single_type();
        assert!(bad.validate().is_err());

        assert!(PayoffTable::new(vec![]).validate().is_err());
    }
}
