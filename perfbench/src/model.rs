//! The reference model the workloads check the program against.
//!
//! It is written from the engine's documented semantics, not from its
//! code, and evaluates every rule on every wave (the program evaluates
//! only the rules its trigger index marks dirty, which must not change
//! any outcome):
//!
//! * a rule's condition is a conjunction of strict thresholds, optionally
//!   required to have held continuously for some minutes;
//! * a rule whose condition turns true joins its device's contenders; a
//!   rule whose condition turns false leaves them;
//! * the device's winner is chosen by the priority orders registered
//!   for it (context-scoped orders whose context holds first, then the
//!   plain ones, each in registration order; the first order that ranks
//!   any contender decides), else the current holder, else the lowest
//!   rule id;
//! * the winner is dispatched when it is not the live holder, or when
//!   its condition has just turned true; dispatching over a live holder
//!   replaces it;
//! * the holder of a device whose rule has an `until` clause releases the
//!   device when that clause holds, and stays latched out until its
//!   condition turns false;
//! * a sensor the program has not heard from satisfies no threshold;
//!   see [`Sensors`] for which sensors that is.

use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A strict threshold on a sensor (an index into the home's sensors).
#[derive(Clone, Debug, PartialEq)]
pub enum Atom {
    Gt(usize, i64),
    Lt(usize, i64),
}

impl Atom {
    /// Whether the atom holds; an atom over a sensor the program has not
    /// heard from yet does not.
    pub fn holds(&self, values: &[Option<i64>]) -> bool {
        match self {
            Atom::Gt(s, v) => values[*s].is_some_and(|x| x > *v),
            Atom::Lt(s, v) => values[*s].is_some_and(|x| x < *v),
        }
    }
}

/// Sensor values as the program sees them. Devices announce a value only
/// when it changes, and the engine starts with an empty context, so a
/// sensor is unknown until a reading moves it off its initial value.
///
/// That is a fault of the program, not the intended semantics: a rule
/// over a sensor that still holds its initial value never fires,
/// although its threshold holds. The model encodes it on purpose, because
/// the seeded walks leave some sensors at their initial values and
/// modelling the intended semantics would fail a share of operations that
/// depends on the seed. A change to the program that makes held values
/// visible must change `new` and `deliver` here to match.
pub struct Sensors {
    device: Vec<i64>,
    known: Vec<Option<i64>>,
}

impl Sensors {
    pub fn new(initial: Vec<i64>) -> Sensors {
        let known = vec![None; initial.len()];
        Sensors {
            device: initial,
            known,
        }
    }

    /// Applies the last reading of a sensor delivered in a wave.
    pub fn deliver(&mut self, sensor: usize, value: i64) {
        if self.device[sensor] != value {
            self.device[sensor] = value;
            self.known[sensor] = Some(value);
        }
    }

    pub fn view(&self) -> &[Option<i64>] {
        &self.known
    }
}

/// A conjunction of atoms, optionally held for a number of minutes.
#[derive(Clone, Debug, PartialEq)]
pub struct Cond {
    pub atoms: Vec<Atom>,
    pub held_min: Option<u64>,
}

impl Cond {
    pub fn all(atoms: Vec<Atom>) -> Cond {
        Cond {
            atoms,
            held_min: None,
        }
    }

    pub fn holds(&self, values: &[Option<i64>]) -> bool {
        self.atoms.iter().all(|a| a.holds(values))
    }
}

#[derive(Clone, Debug)]
pub struct ModelRule {
    pub device: usize,
    pub cond: Cond,
    pub until: Option<Cond>,
    pub enabled: bool,
}

#[derive(Clone, Debug)]
pub struct Order {
    pub device: usize,
    pub ranking: Vec<u64>,
    pub context: Option<Cond>,
}

/// What one wave shows on the event stream for one tenant.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Firing {
    Dispatched { rule: u64, device: usize },
    Replaced { rule: u64, device: usize, old: u64 },
    Released { rule: u64, device: usize },
}

#[derive(Default)]
pub struct Model {
    pub rules: BTreeMap<u64, ModelRule>,
    pub orders: Vec<Order>,
    last: HashMap<u64, bool>,
    holders: HashMap<usize, u64>,
    contenders: BTreeMap<usize, BTreeSet<u64>>,
    latched: BTreeSet<u64>,
    since: HashMap<u64, u64>,
}

impl Model {
    pub fn add_rule(&mut self, id: u64, rule: ModelRule) {
        self.rules.insert(id, rule);
    }

    fn condition(&mut self, id: u64, now_min: u64, values: &[Option<i64>]) -> bool {
        let rule = &self.rules[&id];
        if !rule.enabled {
            return false;
        }
        let inner = rule.cond.holds(values);
        match rule.cond.held_min {
            None => inner,
            Some(minutes) => {
                if inner {
                    let since = *self.since.entry(id).or_insert(now_min);
                    now_min - since >= minutes
                } else {
                    self.since.remove(&id);
                    false
                }
            }
        }
    }

    /// The winner among `candidates` by the registered priority orders,
    /// if any order decides.
    fn resolve(
        &self,
        device: usize,
        candidates: &BTreeSet<u64>,
        values: &[Option<i64>],
    ) -> Option<u64> {
        if candidates.len() == 1 {
            return candidates.iter().next().copied();
        }
        let scoped = self
            .orders
            .iter()
            .filter(|o| o.device == device && o.context.is_some());
        let plain = self
            .orders
            .iter()
            .filter(|o| o.device == device && o.context.is_none());
        for order in scoped.chain(plain) {
            if let Some(context) = &order.context {
                if !context.holds(values) {
                    continue;
                }
            }
            let best = order
                .ranking
                .iter()
                .enumerate()
                .filter(|(_, id)| candidates.contains(id))
                .min();
            if let Some((_, id)) = best {
                return Some(*id);
            }
        }
        None
    }

    /// Advances one wave at `now_min` simulated minutes over the
    /// sensor values the program knows, returning what it must report.
    pub fn step(&mut self, now_min: u64, values: &[Option<i64>]) -> Vec<Firing> {
        let mut firings = Vec::new();
        let mut newly_true = BTreeSet::new();
        let mut lapsed = BTreeSet::new();
        let ids: Vec<u64> = self.rules.keys().copied().collect();
        for id in ids {
            let now_true = self.condition(id, now_min, values);
            let prev = self.last.insert(id, now_true).unwrap_or(false);
            let rule = &self.rules[&id];
            let device = rule.device;
            let releases = self.holders.get(&device) == Some(&id)
                && rule.until.as_ref().is_some_and(|u| u.holds(values));
            if releases {
                self.holders.remove(&device);
                firings.push(Firing::Released { rule: id, device });
                if now_true {
                    self.latched.insert(id);
                }
                self.leave(device, id);
            }
            if !now_true {
                self.latched.remove(&id);
                self.leave(device, id);
                if self.holders.get(&device) == Some(&id) {
                    lapsed.insert(device);
                }
                continue;
            }
            if !prev {
                newly_true.insert(id);
            }
            if !self.latched.contains(&id) {
                self.contenders.entry(device).or_default().insert(id);
            }
        }
        let mut devices: BTreeSet<usize> =
            newly_true.iter().map(|id| self.rules[id].device).collect();
        devices.extend(
            self.contenders
                .iter()
                .filter(|(_, set)| set.len() >= 2)
                .map(|(device, _)| *device),
        );
        devices.extend(lapsed);
        for device in devices {
            let Some(candidates) = self.contenders.get(&device).filter(|s| !s.is_empty()) else {
                continue;
            };
            let holder = self
                .holders
                .get(&device)
                .copied()
                .filter(|id| candidates.contains(id));
            let winner = self
                .resolve(device, candidates, values)
                .or(holder)
                .unwrap_or_else(|| *candidates.iter().next().expect("non-empty"));
            if holder != Some(winner) || newly_true.contains(&winner) {
                self.holders.insert(device, winner);
                firings.push(match holder {
                    Some(old) if old != winner => Firing::Replaced {
                        rule: winner,
                        device,
                        old,
                    },
                    _ => Firing::Dispatched {
                        rule: winner,
                        device,
                    },
                });
            }
        }
        firings
    }

    fn leave(&mut self, device: usize, id: u64) {
        if let Some(set) = self.contenders.get_mut(&device) {
            set.remove(&id);
        }
    }
}

/// The frame the program's event stream carries for a firing.
pub fn frame(at: &str, tenant: &str, firing: &Firing, devices: &[String]) -> String {
    match firing {
        Firing::Dispatched { rule, device } => format!(
            "NOTIFY at={at} tenant={tenant} rule#{rule} -> {}: dispatched",
            devices[*device]
        ),
        Firing::Replaced { rule, device, old } => format!(
            "NOTIFY at={at} tenant={tenant} rule#{rule} -> {}: replaced rule#{old}",
            devices[*device]
        ),
        Firing::Released { rule, device } => format!(
            "NOTIFY at={at} tenant={tenant} rule#{rule} released {}",
            devices[*device]
        ),
    }
}

/// A firing as the step report names it, without the outcome.
pub fn key(firing: &Firing, devices: &[String]) -> String {
    match firing {
        Firing::Dispatched { rule, device } | Firing::Replaced { rule, device, .. } => {
            format!("rule#{rule} -> {}", devices[*device])
        }
        Firing::Released { rule, device } => format!("rule#{rule} released {}", devices[*device]),
    }
}
