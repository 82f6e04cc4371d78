//! Application messages and uplink frames.

use mlora_simcore::{MessageId, NodeId, SimTime};

/// Size of one default application reading, bytes (§VII.A.4: 20-byte
/// message). Traffic profiles may generate readings of other sizes; this
/// is the paper's homogeneous default.
pub const APP_MESSAGE_BYTES: usize = 20;

/// LoRaWAN overhead per uplink frame, bytes: MHDR (1) + DevAddr (4) +
/// MIC (4). Kept compact so a full 12-message bundle plus the routing
/// metadata is exactly the 255-byte LoRa maximum the paper quotes.
pub const FRAME_HEADER_BYTES: usize = 9;

/// Most application messages bundled into one frame (§VII.A.5: "devices
/// select up to 12 messages from the queue").
pub const MAX_BUNDLE: usize = 12;

/// Bytes spent piggybacking the routing metadata (RCA-ETX as f32 plus a
/// 16-bit queue length).
pub const METADATA_BYTES: usize = 6;

/// The LoRa PHY payload maximum, bytes: no frame may exceed this.
pub const MAX_FRAME_BYTES: usize = mlora_phy::LORA_MAX_PAYLOAD_BYTES;

/// Byte budget for the bundled application payloads of one frame: the
/// PHY maximum minus the frame header and the piggybacked metadata.
/// Twelve default 20-byte readings fill it exactly.
pub const MAX_BUNDLE_BYTES: usize = MAX_FRAME_BYTES - FRAME_HEADER_BYTES - METADATA_BYTES;

/// Link-layer priority class of an application message.
///
/// Higher-priority messages are queued ahead of lower-priority ones
/// (FIFO within a class), so they ride the next available uplink slot
/// first. The paper's homogeneous workload is all [`Priority::Normal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Background traffic: queued behind everything else.
    Low,
    /// The default class; the paper's whole workload runs here.
    #[default]
    Normal,
    /// Urgent traffic (alerts, panic buttons): jumps the queue.
    High,
}

impl Priority {
    /// All classes, lowest first.
    pub const ALL: [Priority; 3] = [Priority::Low, Priority::Normal, Priority::High];

    /// A short label for tables and traces.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// One application reading.
///
/// Identity, provenance and traffic-model tags — the simulation never
/// materialises the payload bytes, but it carries the payload *size*
/// end-to-end so frame airtime reflects what was actually sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppMessage {
    /// Globally unique message identity.
    pub id: MessageId,
    /// The device that generated the reading.
    pub origin: NodeId,
    /// Generation timestamp (`t_d(x)` in the paper's delay metric).
    pub created: SimTime,
    /// Application payload size, bytes (the paper's default reading is
    /// [`APP_MESSAGE_BYTES`]; traffic profiles may vary it).
    pub payload_bytes: u16,
    /// Index of the traffic profile that generated this reading (0 for
    /// the paper's homogeneous workload).
    pub profile: u8,
    /// Link-layer priority class.
    pub priority: Priority,
}

impl AppMessage {
    /// Creates a message record with the paper's defaults: a
    /// [`APP_MESSAGE_BYTES`]-byte, [`Priority::Normal`] reading from
    /// profile 0.
    pub fn new(id: MessageId, origin: NodeId, created: SimTime) -> Self {
        AppMessage {
            id,
            origin,
            created,
            payload_bytes: APP_MESSAGE_BYTES as u16,
            profile: 0,
            priority: Priority::Normal,
        }
    }

    /// Tags the message with a traffic profile's payload size, profile
    /// index and priority class (consuming builder style).
    ///
    /// # Example
    ///
    /// ```
    /// use mlora_mac::{AppMessage, Priority};
    /// use mlora_simcore::{MessageId, NodeId, SimTime};
    ///
    /// let msg = AppMessage::new(MessageId::new(1), NodeId::new(0), SimTime::ZERO)
    ///     .with_traffic(48, 2, Priority::High);
    /// assert_eq!(msg.payload_bytes, 48);
    /// assert_eq!(msg.priority, Priority::High);
    /// ```
    pub fn with_traffic(mut self, payload_bytes: u16, profile: u8, priority: Priority) -> Self {
        self.payload_bytes = payload_bytes;
        self.profile = profile;
        self.priority = priority;
        self
    }
}

/// An uplink data frame: up to [`MAX_BUNDLE`] bundled messages plus the
/// sender's routing metadata (§VII.A.5: devices "append their RCA-ETX
/// value and data queue size to the data packets").
#[derive(Debug, Clone, PartialEq)]
pub struct UplinkFrame {
    /// Transmitting device.
    pub sender: NodeId,
    /// Bundled application messages, oldest first.
    pub messages: Vec<AppMessage>,
    /// Sender's node-to-sink RCA-ETX estimate, seconds.
    pub rca_etx: f64,
    /// Sender's queue length (messages) at transmission time.
    pub queue_len: usize,
}

impl UplinkFrame {
    /// Builds a frame.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_BUNDLE`] messages are supplied or the
    /// bundled payloads overflow the [`MAX_FRAME_BYTES`] PHY maximum.
    pub fn new(sender: NodeId, messages: Vec<AppMessage>, rca_etx: f64, queue_len: usize) -> Self {
        assert!(
            messages.len() <= MAX_BUNDLE,
            "frame bundles at most {MAX_BUNDLE} messages, got {}",
            messages.len()
        );
        let frame = UplinkFrame {
            sender,
            messages,
            rca_etx,
            queue_len,
        };
        assert!(
            frame.payload_bytes() <= MAX_FRAME_BYTES,
            "frame payload {} exceeds the {MAX_FRAME_BYTES}-byte LoRa maximum",
            frame.payload_bytes()
        );
        frame
    }

    /// PHY payload size of this frame, bytes: header, metadata and the
    /// *actual* bundled payload sizes (not a per-message constant), so
    /// airtime downstream reflects what each profile put on the air.
    pub fn payload_bytes(&self) -> usize {
        FRAME_HEADER_BYTES
            + METADATA_BYTES
            + self
                .messages
                .iter()
                .map(|m| m.payload_bytes as usize)
                .sum::<usize>()
    }

    /// Number of bundled messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// True if the frame carries no application messages (a pure metric
    /// beacon).
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(i: u64) -> AppMessage {
        AppMessage::new(MessageId::new(i), NodeId::new(0), SimTime::ZERO)
    }

    #[test]
    fn payload_size_fits_lora_maximum() {
        let msgs: Vec<AppMessage> = (0..MAX_BUNDLE as u64).map(msg).collect();
        let frame = UplinkFrame::new(NodeId::new(1), msgs, 10.0, 30);
        // 9 + 6 + 12*20 = 255, the LoRa PHY maximum exactly.
        assert_eq!(
            frame.payload_bytes(),
            FRAME_HEADER_BYTES + METADATA_BYTES + 240
        );
        assert!(frame.payload_bytes() <= MAX_FRAME_BYTES);
        assert_eq!(MAX_BUNDLE_BYTES, 240);
    }

    #[test]
    fn payload_size_tracks_actual_message_bytes() {
        let msgs = vec![
            msg(1).with_traffic(8, 1, Priority::High),
            msg(2).with_traffic(100, 2, Priority::Low),
        ];
        let frame = UplinkFrame::new(NodeId::new(1), msgs, 10.0, 2);
        assert_eq!(
            frame.payload_bytes(),
            FRAME_HEADER_BYTES + METADATA_BYTES + 108
        );
    }

    #[test]
    fn empty_frame_is_beacon() {
        let frame = UplinkFrame::new(NodeId::new(1), Vec::new(), 5.0, 0);
        assert!(frame.is_empty());
        assert_eq!(frame.payload_bytes(), FRAME_HEADER_BYTES + METADATA_BYTES);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn overfull_bundle_rejected() {
        let msgs: Vec<AppMessage> = (0..(MAX_BUNDLE as u64 + 1)).map(msg).collect();
        let _ = UplinkFrame::new(NodeId::new(1), msgs, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "LoRa maximum")]
    fn oversized_bundle_rejected() {
        let msgs: Vec<AppMessage> = (0..3u64)
            .map(|i| msg(i).with_traffic(100, 0, Priority::Normal))
            .collect();
        let _ = UplinkFrame::new(NodeId::new(1), msgs, 1.0, 0);
    }

    #[test]
    fn message_equality_by_fields() {
        assert_eq!(msg(1), msg(1));
        assert_ne!(msg(1), msg(2));
        assert_ne!(msg(1), msg(1).with_traffic(21, 0, Priority::Normal));
    }

    #[test]
    fn priority_ordering() {
        assert!(Priority::High > Priority::Normal);
        assert!(Priority::Normal > Priority::Low);
        assert_eq!(Priority::default(), Priority::Normal);
        assert_eq!(Priority::High.label(), "high");
    }
}
