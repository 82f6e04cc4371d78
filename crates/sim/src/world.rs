//! Section-level tests of the mobility records of a `.mlsc` file: the
//! NETWORK_CONFIG record and a prebuilt world's WORLD, ROUTES and FLEET
//! sections, which `crate::io` lays out. Every file here is written by
//! [`SimConfig::to_writer`] and read by [`SimConfig::from_reader`],
//! some re-sealed in between (`crate::framing`) so an edit reaches the
//! record decoders past the checksums. The hostile-input sweep
//! (`tests/hostile_input.rs`) plants every other world rule.

#[allow(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]
mod tests {
    use mlora_mobility::{BusNetwork, BusNetworkConfig, MetroConfig, MetroWorld};
    use mlora_scenario_io::{section, ScenarioIoError, ScenarioReader, ScenarioWriter, MAGIC};
    use mlora_simcore::SimTime;

    use crate::framing::{seal, sections, splice, varint, Section};
    use crate::persist::{read_record, write_record, Persist};
    use crate::{Scenario, ScenarioFileError, SimConfig};

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

    /// The smoke preset on `net`, saved.
    fn to_bytes(net: BusNetwork) -> Vec<u8> {
        let cfg = Scenario::urban().smoke().world(net).build().unwrap();
        let mut bytes = Vec::new();
        cfg.to_writer(&mut bytes).unwrap();
        bytes
    }

    fn from_bytes(bytes: &[u8]) -> Result<SimConfig, ScenarioFileError> {
        SimConfig::from_reader(bytes)
    }

    fn world_of(bytes: &[u8]) -> BusNetwork {
        let cfg = from_bytes(bytes).unwrap();
        BusNetwork::clone(cfg.world.as_deref().expect("a prebuilt world"))
    }

    fn corrupt(result: Result<SimConfig, ScenarioFileError>) -> &'static str {
        match result {
            Err(ScenarioFileError::Io(ScenarioIoError::Corrupt(what))) => what,
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn world_roundtrips_exactly() {
        let net = small_net();
        assert_eq!(world_of(&to_bytes(net.clone())), net);
    }

    /// The one test that writes a withdrawn trip: its record carries the
    /// truncated duration, which reads back as the withdrawal.
    #[test]
    fn withdrawn_trips_roundtrip() {
        let mut net = small_net();
        let t = SimTime::from_secs(10 * 3600);
        let node = net.active_trips(t).next().unwrap().node();
        net.withdraw(node, t);
        let loaded = world_of(&to_bytes(net.clone()));
        assert_eq!(loaded, net);
        assert!(!loaded.trip(node).is_active(t));
    }

    #[test]
    fn rewrite_is_byte_identical() {
        let bytes = to_bytes(small_net());
        let mut again = Vec::new();
        from_bytes(&bytes).unwrap().to_writer(&mut again).unwrap();
        assert!(again == bytes, "scenario bytes changed");
    }

    #[test]
    fn metro_world_roundtrips() {
        let cfg = MetroConfig {
            num_radials: 6,
            num_rings: 3,
            peak_active_buses: 60,
            ..MetroConfig::default()
        };
        let net = MetroWorld::generate(&cfg, 7).into_network();
        assert_eq!(world_of(&to_bytes(net.clone())), net);
    }

    #[test]
    fn network_config_roundtrips() {
        let cfg = BusNetworkConfig {
            num_routes: 17,
            center_bias: 0.25,
            ..BusNetworkConfig::default()
        };
        let mut w = ScenarioWriter::new(Vec::new()).unwrap();
        write_record(&mut w, section::NETWORK_CONFIG, |enc| cfg.put(enc)).unwrap();
        let bytes = w.finish().unwrap();
        let mut r = ScenarioReader::new(&bytes[..]).unwrap();
        let (id, n) = r.next_section().unwrap().unwrap();
        assert_eq!((id, n), (section::NETWORK_CONFIG, 1));
        let loaded: BusNetworkConfig = read_record(&mut r).unwrap();
        assert_eq!(loaded, cfg);
        assert!(r.next_section().unwrap().is_none());
    }

    #[test]
    fn corrupt_fleet_is_rejected() {
        // The file without its ROUTES section: every trip names a
        // missing route.
        let mut all = sections(&to_bytes(small_net()));
        all.retain(|s| s.id != section::ROUTES);
        let bad = seal(MAGIC, &all);
        assert_eq!(corrupt(from_bytes(&bad)), "fleet before routes");
    }

    #[test]
    fn inflated_route_point_count_is_corrupt_not_an_abort() {
        // A route record, checksummed like any other, claiming 2^60
        // path points and carrying none.
        let hostile = splice(&to_bytes(small_net()), MAGIC, section::ROUTES, |s| {
            s.count = 1;
            s.payload = [&10.0_f64.to_le_bytes()[..], &varint(1 << 60)].concat();
        });
        assert_eq!(
            corrupt(from_bytes(&hostile)),
            "record crosses block boundary"
        );
    }

    /// Section `id` of a saved [`small_net`] promising 2^60 records.
    /// The count stands in the section header, outside every block, so
    /// all checksums still hold.
    fn with_inflated_count(id: u8) -> Vec<u8> {
        splice(&to_bytes(small_net()), MAGIC, id, |s| s.count = 1 << 60)
    }

    #[test]
    fn inflated_route_count_is_corrupt_not_an_abort() {
        let hostile = with_inflated_count(section::ROUTES);
        assert_eq!(
            corrupt(from_bytes(&hostile)),
            "section ended before its records"
        );
    }

    #[test]
    fn inflated_fleet_count_is_corrupt_not_an_abort() {
        let hostile = with_inflated_count(section::FLEET);
        assert_eq!(
            corrupt(from_bytes(&hostile)),
            "section ended before its records"
        );
    }

    #[test]
    fn file_without_world_sections_is_none() {
        let cfg = Scenario::urban().smoke().build().unwrap();
        let mut bytes = Vec::new();
        cfg.to_writer(&mut bytes).unwrap();
        // Plus a section this build does not know, which is skipped.
        let mut all = sections(&bytes);
        all.push(Section {
            id: 42,
            count: 1,
            payload: b"opaque".to_vec(),
        });
        let loaded = from_bytes(&seal(MAGIC, &all)).unwrap();
        assert!(loaded.world.is_none());
        assert_eq!(loaded, cfg);
    }
}
