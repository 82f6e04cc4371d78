//! Codecs for the world-level sections: the mobility generator config
//! and prebuilt worlds (header, routes, fleet).

use mlora_geo::{BBox, Point, Polyline};
use mlora_mobility::{BusNetwork, BusNetworkConfig, DiurnalProfile, Route, RouteId, Trip};
use mlora_simcore::{NodeId, SimDuration, SimTime};

use crate::container::{ScenarioIoError, ScenarioReader, ScenarioWriter};
use crate::section;

/// Writes the mobility generator configuration as the
/// [`section::NETWORK_CONFIG`] section (one record).
///
/// # Errors
///
/// Propagates IO errors from the sink.
pub fn write_network_config<W: std::io::Write>(
    w: &mut ScenarioWriter<W>,
    cfg: &BusNetworkConfig,
) -> std::io::Result<()> {
    w.begin_section(section::NETWORK_CONFIG, 1)?;
    let enc = w.enc();
    enc.put_f64(cfg.area_side_m);
    enc.put_varint(cfg.num_routes as u64);
    enc.put_varint(cfg.waypoints_per_route as u64);
    enc.put_f64(cfg.min_route_length_m);
    enc.put_f64(cfg.min_speed_mps);
    enc.put_f64(cfg.max_speed_mps);
    enc.put_varint(cfg.max_active_buses as u64);
    enc.put_varint(u64::from(cfg.min_legs));
    enc.put_varint(u64::from(cfg.max_legs));
    enc.put_varint(cfg.horizon.as_millis());
    enc.put_f64(cfg.center_bias);
    for &level in cfg.profile.hourly() {
        enc.put_f64(level);
    }
    w.end_record()?;
    w.end_section()
}

/// Reads a [`section::NETWORK_CONFIG`] record written by
/// [`write_network_config`]. The reader must be positioned inside that
/// section (after [`ScenarioReader::next_section`]).
///
/// # Errors
///
/// Structural errors, plus [`ScenarioIoError::Corrupt`] for values the
/// generator would reject: non-finite floats, and every rule of
/// [`BusNetworkConfig::validate`].
pub fn read_network_config<R: std::io::Read>(
    r: &mut ScenarioReader<R>,
) -> Result<BusNetworkConfig, ScenarioIoError> {
    r.begin_record()?;
    let area_side_m = finite(r.f64()?, "network config area")?;
    let num_routes = r.varint()? as usize;
    let waypoints_per_route = r.varint()? as usize;
    let min_route_length_m = finite(r.f64()?, "network config route length")?;
    let min_speed_mps = finite(r.f64()?, "network config speed")?;
    let max_speed_mps = finite(r.f64()?, "network config speed")?;
    let max_active_buses = r.varint()? as usize;
    let min_legs = legs(r.varint()?)?;
    let max_legs = legs(r.varint()?)?;
    let horizon = SimDuration::from_millis(r.varint()?);
    let center_bias = finite(r.f64()?, "network config center bias")?;
    if !(0.0..=1.0).contains(&center_bias) {
        return Err(ScenarioIoError::Corrupt("center bias outside [0, 1]"));
    }
    let mut hourly = Vec::with_capacity(24);
    for _ in 0..24 {
        let level = finite(r.f64()?, "diurnal level")?;
        if !(0.0..=1.0).contains(&level) {
            return Err(ScenarioIoError::Corrupt("diurnal level outside [0, 1]"));
        }
        hourly.push(level);
    }
    let cfg = BusNetworkConfig {
        area_side_m,
        num_routes,
        waypoints_per_route,
        min_route_length_m,
        min_speed_mps,
        max_speed_mps,
        max_active_buses,
        min_legs,
        max_legs,
        horizon,
        profile: DiurnalProfile::from_hourly(hourly),
        center_bias,
    };
    cfg.validate().map_err(|e| ScenarioIoError::Corrupt(e.0))?;
    Ok(cfg)
}

/// Writes a prebuilt world as three sections — [`section::WORLD`]
/// (area + horizon), [`section::ROUTES`] (one record per route) and
/// [`section::FLEET`] (one record per trip) — streaming record by
/// record, never re-buffering the network.
///
/// # Errors
///
/// Propagates IO errors from the sink.
pub fn write_world<W: std::io::Write>(
    w: &mut ScenarioWriter<W>,
    net: &BusNetwork,
) -> std::io::Result<()> {
    w.begin_section(section::WORLD, 1)?;
    let area = net.area();
    let enc = w.enc();
    enc.put_f64(area.min().x);
    enc.put_f64(area.min().y);
    enc.put_f64(area.max().x);
    enc.put_f64(area.max().y);
    enc.put_varint(net.horizon().as_millis());
    w.end_record()?;
    w.end_section()?;

    w.begin_section(section::ROUTES, net.routes().len() as u64)?;
    for route in net.routes() {
        let enc = w.enc();
        enc.put_f64(route.speed_mps());
        let points = route.path().points();
        enc.put_varint(points.len() as u64);
        for p in points {
            enc.put_f64(p.x);
            enc.put_f64(p.y);
        }
        w.end_record()?;
    }
    w.end_section()?;

    w.begin_section(section::FLEET, net.trips().len() as u64)?;
    for trip in net.trips() {
        let enc = w.enc();
        enc.put_varint(trip.route().raw() as u64);
        enc.put_varint(trip.depart().as_millis());
        enc.put_varint(u64::from(trip.legs()));
        enc.put_varint(trip.duration().as_millis());
        w.end_record()?;
    }
    w.end_section()
}

/// Incremental assembler for the three world sections.
///
/// Feed it sections in any order that puts [`section::ROUTES`] before
/// [`section::FLEET`] (the writer's order always does); call
/// [`WorldAssembler::finish`] once all three have been read.
#[derive(Debug, Default)]
pub struct WorldAssembler {
    header: Option<(BBox, SimDuration)>,
    routes: Vec<Route>,
    trips: Vec<Trip>,
    saw_fleet: bool,
}

impl WorldAssembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        WorldAssembler::default()
    }

    /// True once any world section has been fed in — used by config
    /// loaders to distinguish "file carries a prebuilt world" from
    /// "file regenerates from config".
    pub fn started(&self) -> bool {
        self.header.is_some() || !self.routes.is_empty() || self.saw_fleet
    }

    /// Reads the [`section::WORLD`] header record.
    ///
    /// # Errors
    ///
    /// Structural errors, plus [`ScenarioIoError::Corrupt`] on a
    /// non-finite or inverted bounding box.
    pub fn read_world_header<R: std::io::Read>(
        &mut self,
        r: &mut ScenarioReader<R>,
    ) -> Result<(), ScenarioIoError> {
        r.begin_record()?;
        let min = Point::new(finite(r.f64()?, "area")?, finite(r.f64()?, "area")?);
        let max = Point::new(finite(r.f64()?, "area")?, finite(r.f64()?, "area")?);
        if min.x > max.x || min.y > max.y {
            return Err(ScenarioIoError::Corrupt("inverted bounding box"));
        }
        let horizon = SimDuration::from_millis(r.varint()?);
        self.header = Some((BBox::new(min, max), horizon));
        Ok(())
    }

    /// Reads all `count` [`section::ROUTES`] records.
    ///
    /// # Errors
    ///
    /// Structural errors, plus [`ScenarioIoError::Corrupt`] on bad
    /// speeds or degenerate geometry.
    pub fn read_routes<R: std::io::Read>(
        &mut self,
        r: &mut ScenarioReader<R>,
        count: u64,
    ) -> Result<(), ScenarioIoError> {
        self.routes.reserve(reserve_hint(count));
        for _ in 0..count {
            r.begin_record()?;
            let speed = finite(r.f64()?, "route speed")?;
            if speed <= 0.0 {
                return Err(ScenarioIoError::Corrupt("route speed not positive"));
            }
            let n = r.varint()? as usize;
            let mut points = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                points.push(Point::new(
                    finite(r.f64()?, "route point")?,
                    finite(r.f64()?, "route point")?,
                ));
            }
            let path = Polyline::new(points)
                .map_err(|_| ScenarioIoError::Corrupt("degenerate route path"))?;
            let id = RouteId::new(self.routes.len() as u32);
            self.routes.push(Route::new(id, path, speed));
        }
        Ok(())
    }

    /// Reads all `count` [`section::FLEET`] records. Requires routes to
    /// have been read first.
    ///
    /// Withdrawn trips roundtrip exactly: the record stores the live
    /// (possibly truncated) duration, and a duration shorter than the
    /// schedule implies a withdrawal at `depart + duration`.
    ///
    /// # Errors
    ///
    /// Structural errors, plus [`ScenarioIoError::Corrupt`] on a trip
    /// referencing a missing route, zero legs, or a duration longer
    /// than its schedule allows.
    pub fn read_fleet<R: std::io::Read>(
        &mut self,
        r: &mut ScenarioReader<R>,
        count: u64,
    ) -> Result<(), ScenarioIoError> {
        if self.routes.is_empty() {
            return Err(ScenarioIoError::Corrupt("fleet before routes"));
        }
        self.saw_fleet = true;
        self.trips.reserve(reserve_hint(count));
        for _ in 0..count {
            r.begin_record()?;
            let route_idx = r.varint()? as usize;
            let depart = SimTime::from_millis(r.varint()?);
            let legs = r.varint()?;
            let duration = SimDuration::from_millis(r.varint()?);
            let route = self
                .routes
                .get(route_idx)
                .ok_or(ScenarioIoError::Corrupt("trip references missing route"))?;
            if legs == 0 || legs > u64::from(u32::MAX) {
                return Err(ScenarioIoError::Corrupt("trip leg count out of range"));
            }
            let node = NodeId::new(self.trips.len() as u32);
            let mut trip = Trip::new(node, route, depart, legs as u32);
            if duration < trip.duration() {
                trip.withdraw(depart + duration);
            } else if duration > trip.duration() {
                return Err(ScenarioIoError::Corrupt("trip duration exceeds schedule"));
            }
            self.trips.push(trip);
        }
        Ok(())
    }

    /// Assembles the network from everything read so far.
    ///
    /// # Errors
    ///
    /// [`ScenarioIoError::MissingSection`] if the header never arrived,
    /// [`ScenarioIoError::World`] if the parts violate a network
    /// invariant.
    pub fn finish(self) -> Result<BusNetwork, ScenarioIoError> {
        let (area, horizon) = self
            .header
            .ok_or(ScenarioIoError::MissingSection("world header"))?;
        Ok(BusNetwork::from_parts(
            self.routes,
            self.trips,
            area,
            horizon,
        )?)
    }
}

/// Drives a [`ScenarioReader`] to the end of the file, assembling the
/// world sections and skipping everything else.
///
/// Returns `Ok(None)` when the file carries no world sections at all.
///
/// # Errors
///
/// Structural, checksum and invariant errors from the sections read.
pub fn read_world_sections<R: std::io::Read>(
    r: &mut ScenarioReader<R>,
) -> Result<Option<BusNetwork>, ScenarioIoError> {
    let mut asm = WorldAssembler::new();
    while let Some((id, count)) = r.next_section()? {
        match id {
            section::WORLD => asm.read_world_header(r)?,
            section::ROUTES => asm.read_routes(r, count)?,
            section::FLEET => asm.read_fleet(r, count)?,
            _ => r.skip_section()?,
        }
    }
    if asm.started() {
        asm.finish().map(Some)
    } else {
        Ok(None)
    }
}

/// How many records to reserve for on the word of a section header,
/// which no checksum covers: a day of a 20 000-bus metro (283 k trips)
/// still gets its one allocation, a count of 2^60 gets no more.
fn reserve_hint(count: u64) -> usize {
    count.min(1 << 20) as usize
}

fn finite(v: f64, what: &'static str) -> Result<f64, ScenarioIoError> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(ScenarioIoError::Corrupt(what))
    }
}

fn legs(v: u64) -> Result<u32, ScenarioIoError> {
    u32::try_from(v).map_err(|_| ScenarioIoError::Corrupt("leg count out of range"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlora_mobility::MetroConfig;

    fn small_net() -> BusNetwork {
        BusNetwork::generate(
            &BusNetworkConfig {
                num_routes: 6,
                max_active_buses: 30,
                ..BusNetworkConfig::default()
            },
            99,
        )
    }

    fn to_bytes(net: &BusNetwork) -> Vec<u8> {
        let mut w = ScenarioWriter::new(Vec::new()).unwrap();
        write_world(&mut w, net).unwrap();
        w.finish().unwrap()
    }

    fn from_bytes(bytes: &[u8]) -> BusNetwork {
        let mut r = ScenarioReader::new(bytes).unwrap();
        read_world_sections(&mut r).unwrap().unwrap()
    }

    #[test]
    fn world_roundtrips_exactly() {
        let net = small_net();
        assert_eq!(from_bytes(&to_bytes(&net)), net);
    }

    #[test]
    fn withdrawn_trips_roundtrip() {
        let mut net = small_net();
        let t = SimTime::from_secs(10 * 3600);
        let node = net.active_trips(t).next().unwrap().node();
        net.withdraw(node, t);
        let loaded = from_bytes(&to_bytes(&net));
        assert_eq!(loaded, net);
        assert!(!loaded.trip(node).is_active(t));
    }

    #[test]
    fn rewrite_is_byte_identical() {
        let net = small_net();
        let bytes = to_bytes(&net);
        assert_eq!(to_bytes(&from_bytes(&bytes)), bytes);
    }

    #[test]
    fn metro_world_roundtrips() {
        let cfg = MetroConfig {
            num_radials: 6,
            num_rings: 3,
            peak_active_buses: 60,
            ..MetroConfig::default()
        };
        let world = mlora_mobility::MetroWorld::generate(&cfg, 7);
        let net = world.into_network();
        assert_eq!(from_bytes(&to_bytes(&net)), net);
    }

    #[test]
    fn network_config_roundtrips() {
        let cfg = BusNetworkConfig {
            num_routes: 17,
            center_bias: 0.25,
            ..BusNetworkConfig::default()
        };
        let mut w = ScenarioWriter::new(Vec::new()).unwrap();
        write_network_config(&mut w, &cfg).unwrap();
        let bytes = w.finish().unwrap();
        let mut r = ScenarioReader::new(&bytes[..]).unwrap();
        let (id, n) = r.next_section().unwrap().unwrap();
        assert_eq!((id, n), (section::NETWORK_CONFIG, 1));
        let loaded = read_network_config(&mut r).unwrap();
        assert_eq!(loaded, cfg);
        assert!(r.next_section().unwrap().is_none());
    }

    #[test]
    fn corrupt_fleet_is_rejected() {
        let net = small_net();
        let bytes = to_bytes(&net);
        // Rebuild the file with the fleet section replaced by a trip
        // referencing a missing route.
        let mut w = ScenarioWriter::new(Vec::new()).unwrap();
        w.begin_section(section::WORLD, 1).unwrap();
        let area = net.area();
        w.enc().put_f64(area.min().x);
        w.enc().put_f64(area.min().y);
        w.enc().put_f64(area.max().x);
        w.enc().put_f64(area.max().y);
        w.enc().put_varint(net.horizon().as_millis());
        w.end_record().unwrap();
        w.end_section().unwrap();
        w.begin_section(section::FLEET, 1).unwrap();
        w.enc().put_varint(0);
        w.enc().put_varint(0);
        w.enc().put_varint(1);
        w.enc().put_varint(1);
        w.end_record().unwrap();
        w.end_section().unwrap();
        let bad = w.finish().unwrap();
        let mut r = ScenarioReader::new(&bad[..]).unwrap();
        assert!(matches!(
            read_world_sections(&mut r),
            Err(ScenarioIoError::Corrupt("fleet before routes"))
        ));
        drop(bytes);
    }

    #[test]
    fn inflated_route_point_count_is_corrupt_not_an_abort() {
        // A record the writer checksums like any other, claiming 2^60
        // path points and carrying none.
        let mut w = ScenarioWriter::new(Vec::new()).unwrap();
        w.begin_section(section::ROUTES, 1).unwrap();
        w.enc().put_f64(10.0);
        w.enc().put_varint(1 << 60);
        w.end_record().unwrap();
        w.end_section().unwrap();
        let bytes = w.finish().unwrap();
        let mut r = ScenarioReader::new(&bytes[..]).unwrap();
        assert!(matches!(
            read_world_sections(&mut r),
            Err(ScenarioIoError::Corrupt("record crosses block boundary"))
        ));
    }

    /// `bytes` with the record count of section `id` rewritten to 2^60.
    /// The count stands in the section header, outside every block, so
    /// all checksums still hold.
    fn with_inflated_count(bytes: &[u8], id: u8) -> Vec<u8> {
        let mut cursor = std::io::Cursor::new(bytes);
        let mut r = ScenarioReader::new(&mut cursor).unwrap();
        let mut old = crate::Enc::default();
        loop {
            let (section, records) = r.next_section().unwrap().expect("section present");
            if section == id {
                old.put_varint(records);
                break;
            }
            r.skip_section().unwrap();
        }
        // The reader has consumed the header up to the end of its count.
        let end = cursor.position() as usize;
        let huge = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10];
        [&bytes[..end - old.len()], &huge, &bytes[end..]].concat()
    }

    #[test]
    fn inflated_route_count_is_corrupt_not_an_abort() {
        let hostile = with_inflated_count(&to_bytes(&small_net()), section::ROUTES);
        let mut r = ScenarioReader::new(&hostile[..]).unwrap();
        assert!(matches!(
            read_world_sections(&mut r),
            Err(ScenarioIoError::Corrupt("section ended before its records"))
        ));
    }

    #[test]
    fn inflated_fleet_count_is_corrupt_not_an_abort() {
        let hostile = with_inflated_count(&to_bytes(&small_net()), section::FLEET);
        let mut r = ScenarioReader::new(&hostile[..]).unwrap();
        assert!(matches!(
            read_world_sections(&mut r),
            Err(ScenarioIoError::Corrupt("section ended before its records"))
        ));
    }

    #[test]
    fn file_without_world_sections_is_none() {
        let mut w = ScenarioWriter::new(Vec::new()).unwrap();
        w.begin_section(42, 1).unwrap();
        w.enc().put_str("opaque");
        w.end_record().unwrap();
        w.end_section().unwrap();
        let bytes = w.finish().unwrap();
        let mut r = ScenarioReader::new(&bytes[..]).unwrap();
        assert!(read_world_sections(&mut r).unwrap().is_none());
    }
}
