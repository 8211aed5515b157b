//! Generated homes: rooms, sensors and appliances, the tenant builder
//! that installs them, and the CADEL sentences the workloads submit.

use crate::model::{Atom, Cond};
use cadel::devices::{
    AirConditioner, EnvironmentSensor, Hygrometer, Light, LightKind, LuxMeter, Thermometer,
};
use cadel::fleet::{Ingress, TenantBuilder, TenantParts, TenantWorld};
use cadel::server::HomeServer;
use cadel::types::{Rational, SimTime, Topology, Value};
use cadel::upnp::{ControlPoint, Registry};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// The user every workload submits as.
pub const USER: &str = "resident";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SensorKind {
    Temperature,
    Humidity,
    Illuminance,
}

impl SensorKind {
    pub fn variable(self) -> &'static str {
        match self {
            SensorKind::Temperature => "temperature",
            SensorKind::Humidity => "humidity",
            SensorKind::Illuminance => "illuminance",
        }
    }

    pub fn unit(self) -> &'static str {
        match self {
            SensorKind::Temperature => "degrees",
            SensorKind::Humidity => "percent",
            SensorKind::Illuminance => "lux",
        }
    }

    /// The reading a freshly built device reports.
    pub fn initial(self) -> i64 {
        match self {
            SensorKind::Temperature => 22,
            SensorKind::Humidity => 50,
            SensorKind::Illuminance => 300,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApplianceKind {
    AirConditioner,
    Lamp,
}

#[derive(Clone, Debug)]
pub struct SensorSpec {
    pub udn: String,
    pub room: usize,
    pub kind: SensorKind,
}

#[derive(Clone, Debug)]
pub struct ApplianceSpec {
    pub udn: String,
    pub room: usize,
    pub kind: ApplianceKind,
}

/// A home layout. Sentences name devices by room (`at the <room>`)
/// unless the home has a single room.
#[derive(Clone, Debug, Default)]
pub struct HomeSpec {
    pub rooms: Vec<String>,
    pub sensors: Vec<SensorSpec>,
    pub appliances: Vec<ApplianceSpec>,
}

/// Pronounceable room names without digits, so no name collides with a
/// number or a word of the CADEL lexicon.
pub fn room_name(index: usize) -> String {
    const SYL: [&str; 16] = [
        "ba", "ke", "mi", "no", "ru", "sa", "te", "vo", "zi", "lu", "pe", "ga", "do", "fi", "ho",
        "ja",
    ];
    format!(
        "ro{}{}{}",
        SYL[index / 256 % 16],
        SYL[index / 16 % 16],
        SYL[index % 16]
    )
}

impl HomeSpec {
    pub fn add_room(&mut self, name: String) -> usize {
        self.rooms.push(name);
        self.rooms.len() - 1
    }

    pub fn add_sensor(&mut self, room: usize, kind: SensorKind) -> usize {
        let udn = format!("{}-{}", kind.variable(), self.rooms[room]);
        self.sensors.push(SensorSpec { udn, room, kind });
        self.sensors.len() - 1
    }

    pub fn add_appliance(&mut self, room: usize, kind: ApplianceKind) -> usize {
        let prefix = match kind {
            ApplianceKind::AirConditioner => "aircon",
            ApplianceKind::Lamp => "lamp",
        };
        let udn = format!("{prefix}-{}", self.rooms[room]);
        self.appliances.push(ApplianceSpec { udn, room, kind });
        self.appliances.len() - 1
    }

    pub fn initial_values(&self) -> Vec<i64> {
        self.sensors.iter().map(|s| s.kind.initial()).collect()
    }

    fn scoped(&self) -> bool {
        self.rooms.len() > 1
    }

    fn place(&self, room: usize) -> String {
        if self.scoped() {
            format!(" at the {}", self.rooms[room])
        } else {
            String::new()
        }
    }

    fn atom_phrase(&self, atom: &Atom) -> String {
        let (sensor, word, value) = match atom {
            Atom::Gt(s, v) => (*s, "higher", v),
            Atom::Lt(s, v) => (*s, "lower", v),
        };
        let spec = &self.sensors[sensor];
        format!(
            "the {}{} is {word} than {value} {}",
            spec.kind.variable(),
            self.place(spec.room),
            spec.kind.unit()
        )
    }

    fn cond_phrase(&self, cond: &Cond) -> String {
        let mut out = cond
            .atoms
            .iter()
            .map(|a| self.atom_phrase(a))
            .collect::<Vec<_>>()
            .join(" and ");
        if let Some(minutes) = cond.held_min {
            out.push_str(&format!(" for {minutes} minutes"));
        }
        out
    }

    /// The CADEL sentence for a rule: `If <cond>, turn on <appliance>
    /// [with N degrees of temperature setting] [until <cond>].`
    pub fn sentence(&self, rule: &RuleText) -> String {
        let appliance = &self.appliances[rule.device];
        let name = match appliance.kind {
            ApplianceKind::AirConditioner => "air conditioner",
            ApplianceKind::Lamp => "lamp",
        };
        let mut out = format!(
            "If {}, turn on the {name}{}",
            self.cond_phrase(&rule.cond),
            self.place(appliance.room)
        );
        if let Some(setting) = rule.setting {
            out.push_str(&format!(" with {setting} degrees of temperature setting"));
        }
        if let Some(until) = &rule.until {
            out.push_str(&format!(" until {}", self.cond_phrase(until)));
        }
        out.push('.');
        out
    }

    /// One reading as it goes on the wire.
    pub fn reading_json(&self, sensor: usize, value: i64, at: SimTime) -> String {
        let spec = &self.sensors[sensor];
        let unit = match spec.kind {
            SensorKind::Temperature => "celsius",
            other => other.unit(),
        };
        format!(
            "{{\"device\":\"{}\",\"variable\":\"{}\",\"value\":{value},\"unit\":\"{unit}\",\"at_ms\":{}}}",
            spec.udn,
            spec.kind.variable(),
            at.as_millis()
        )
    }

    /// Builds the device world: registry, topology and the reading sink.
    pub fn install(&self) -> (ControlPoint, Topology, SensorWorld) {
        let registry = Registry::new();
        let mut topology = Topology::new("home");
        topology.add_floor("ground").expect("fresh topology");
        for room in &self.rooms {
            topology
                .add_room(room, "ground")
                .expect("unique room names");
        }
        let mut world = SensorWorld::default();
        for sensor in &self.sensors {
            let room = &self.rooms[sensor.room];
            let initial = sensor.kind.initial();
            let handle = match sensor.kind {
                SensorKind::Temperature => {
                    let device = Thermometer::new(&sensor.udn, "Thermometer", room, initial);
                    registry.register(device.clone()).expect("unique UDN");
                    SensorHandle::Env(device)
                }
                SensorKind::Humidity => {
                    let device = Hygrometer::new(&sensor.udn, "Hygrometer", room, initial);
                    registry.register(device.clone()).expect("unique UDN");
                    SensorHandle::Env(device)
                }
                SensorKind::Illuminance => {
                    let device = LuxMeter::new(&sensor.udn, "Lux Meter", room, initial);
                    registry.register(device.clone()).expect("unique UDN");
                    SensorHandle::Lux(device)
                }
            };
            world.sensors.insert(sensor.udn.clone(), handle);
        }
        for appliance in &self.appliances {
            let room = &self.rooms[appliance.room];
            let registered = match appliance.kind {
                ApplianceKind::AirConditioner => {
                    registry.register(AirConditioner::new(&appliance.udn, "Air Conditioner", room))
                }
                ApplianceKind::Lamp => registry.register(Light::new(
                    &appliance.udn,
                    "Lamp",
                    room,
                    LightKind::FloorLamp,
                )),
            };
            registered.expect("unique UDN");
        }
        (ControlPoint::new(registry), topology, world)
    }

    /// A fleet tenant builder: installs the home and opens the durable
    /// server, adding the resident only on a fresh directory.
    pub fn builder(self: &Arc<HomeSpec>) -> TenantBuilder {
        let spec = Arc::clone(self);
        Arc::new(move |dir: &Path| {
            let (control, topology, world) = spec.install();
            let (mut server, report) = HomeServer::open_at(control, topology, dir)?;
            if report.records_replayed == 0 && !report.snapshot_used {
                server.add_user(USER)?;
            }
            Ok(TenantParts {
                server,
                report,
                world: Box::new(world),
            })
        })
    }
}

/// A rule as the workload generates it, before the program sees it.
#[derive(Clone, Debug)]
pub struct RuleText {
    pub cond: Cond,
    pub until: Option<Cond>,
    pub device: usize,
    pub setting: Option<i64>,
}

pub enum SensorHandle {
    Env(Arc<EnvironmentSensor>),
    Lux(Arc<LuxMeter>),
}

/// Delivers admitted readings to the tenant's sensors.
#[derive(Default)]
pub struct SensorWorld {
    pub sensors: HashMap<String, SensorHandle>,
}

impl SensorWorld {
    pub fn set(&self, udn: &str, value: i64, at: SimTime) {
        let reading = Rational::from_integer(value);
        let _ = match self.sensors.get(udn) {
            Some(SensorHandle::Env(device)) => device.set_reading(reading, at),
            Some(SensorHandle::Lux(device)) => device.set_reading(reading, at),
            None => Ok(()),
        };
    }
}

impl TenantWorld for SensorWorld {
    fn deliver(&mut self, ingress: &Ingress) {
        if let Value::Number(quantity) = &ingress.value {
            let reading = quantity.value();
            let _ = match self.sensors.get(ingress.device.as_str()) {
                Some(SensorHandle::Env(device)) => device.set_reading(reading, ingress.at),
                Some(SensorHandle::Lux(device)) => device.set_reading(reading, ingress.at),
                None => Ok(()),
            };
        }
    }
}
