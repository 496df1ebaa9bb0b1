//! Property-based tests for the wire formats.
//!
//! Invariants: every packet we can construct round-trips through bytes;
//! every single-bit corruption of a checksummed region is detected or
//! yields a different parse (never a silent wrong-field success for the
//! checksummed formats); encapsulation is size-exact and invertible; the
//! IPv4, UDP and IP-in-IP parsers return payloads that are views into the
//! parsed buffer and agree, value for value and error for error, with the
//! copying parsers in [`copying`].

use bytes::Bytes;
use proptest::prelude::*;
use std::net::Ipv4Addr;

use mosquitonet_wire::{
    internet_checksum, ipip, keyed_mac, pseudo_header_sum, ArpOp, ArpPacket, AuthTlv, Cidr,
    IcmpMessage, IpProto, Ipv4Header, Ipv4Packet, MacAddr, TcpFlags, TcpSegment, UdpDatagram,
    WireError, AUTH_TLV_LEN, IPV4_HEADER_LEN,
};

/// Reference parsers that copy the payload out of a plain slice, as this
/// crate's parsers did before they returned views into the input. The
/// zero-copy parsers must give the same packet or the same error on every
/// input.
mod copying {
    use super::*;

    fn need(buf: &[u8], needed: usize) -> Result<(), WireError> {
        if buf.len() < needed {
            return Err(WireError::Truncated {
                needed,
                got: buf.len(),
            });
        }
        Ok(())
    }

    pub fn ipv4(buf: &[u8]) -> Result<Ipv4Packet, WireError> {
        let header = Ipv4Packet::parse_header_prefix(buf)?;
        let total_len = usize::from(u16::from_be_bytes([buf[2], buf[3]]));
        if total_len < IPV4_HEADER_LEN {
            return Err(WireError::BadLength);
        }
        need(buf, total_len)?;
        Ok(Ipv4Packet::new(
            header,
            Bytes::copy_from_slice(&buf[IPV4_HEADER_LEN..total_len]),
        ))
    }

    pub fn udp(buf: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<UdpDatagram, WireError> {
        need(buf, 8)?;
        let len = usize::from(u16::from_be_bytes([buf[4], buf[5]]));
        if len < 8 {
            return Err(WireError::BadLength);
        }
        need(buf, len)?;
        let stored_ck = u16::from_be_bytes([buf[6], buf[7]]);
        if stored_ck != 0
            && internet_checksum(&buf[..len], pseudo_header_sum(src, dst, 17, len as u16)) != 0
        {
            return Err(WireError::BadChecksum);
        }
        Ok(UdpDatagram::new(
            u16::from_be_bytes([buf[0], buf[1]]),
            u16::from_be_bytes([buf[2], buf[3]]),
            Bytes::copy_from_slice(&buf[8..len]),
        ))
    }
}

/// True when `view` lies inside `buf`'s memory: a parsed payload that
/// passes this was sliced out of the input, not copied.
fn points_into(view: &[u8], buf: &[u8]) -> bool {
    let (v, b) = (view.as_ptr_range(), buf.as_ptr_range());
    b.start <= v.start && v.end <= b.end
}

/// `bytes` behind a 14-byte link header and followed by padding, returned
/// as the whole buffer and the view of `bytes` inside it.
fn framed(bytes: &[u8]) -> (Bytes, Bytes) {
    let mut v = vec![0u8; 14];
    v.extend_from_slice(bytes);
    v.extend_from_slice(&[0u8; 6]);
    let whole = Bytes::from(v);
    let view = whole.slice(14..14 + bytes.len());
    (whole, view)
}

fn arb_ipv4_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

fn arb_payload(max: usize) -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..max).prop_map(Bytes::from)
}

fn arb_proto() -> impl Strategy<Value = IpProto> {
    any::<u8>().prop_map(IpProto::from_number)
}

fn arb_ipv4_packet() -> impl Strategy<Value = Ipv4Packet> {
    (
        arb_ipv4_addr(),
        arb_ipv4_addr(),
        arb_proto(),
        any::<u8>(),
        any::<u8>(),
        any::<u16>(),
        any::<bool>(),
        arb_payload(256),
    )
        .prop_map(|(src, dst, protocol, ttl, tos, ident, df, payload)| {
            let mut h = Ipv4Header::new(src, dst, protocol);
            h.ttl = ttl;
            h.tos = tos;
            h.ident = ident;
            h.dont_fragment = df;
            Ipv4Packet::new(h, payload)
        })
}

proptest! {
    #[test]
    fn ipv4_round_trips(pkt in arb_ipv4_packet()) {
        let bytes = pkt.to_bytes();
        let back = Ipv4Packet::parse(&bytes).unwrap();
        prop_assert!(points_into(&back.payload, &bytes));
        prop_assert_eq!(&back, &copying::ipv4(&bytes).unwrap());
        prop_assert_eq!(back, pkt.clone());
        // Parsed out of a frame: the payload still points into the frame.
        let (frame, view) = framed(&bytes);
        let back = Ipv4Packet::parse(&view).unwrap();
        prop_assert!(points_into(&back.payload, &frame));
        prop_assert_eq!(back, pkt);
    }

    #[test]
    fn ipv4_header_bitflips_detected(pkt in arb_ipv4_packet(), bit in 0usize..(20 * 8)) {
        let mut bytes = pkt.to_bytes().to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        // Any single-bit flip in the header must fail the checksum
        // (or trip version/IHL/length validation first).
        let parsed = Ipv4Packet::parse(&Bytes::copy_from_slice(&bytes));
        prop_assert_eq!(&parsed, &copying::ipv4(&bytes));
        if let Ok(parsed) = parsed {
            prop_assert!(false, "corrupted header parsed: {parsed:?}");
        }
    }

    #[test]
    fn ipv4_bad_total_length_matches_reference(pkt in arb_ipv4_packet(), total in any::<u16>()) {
        // A total-length field the buffer cannot back, under a valid
        // header checksum: below 20 is a bad length, above the buffer a
        // truncation, anything else a shorter payload.
        let mut bytes = pkt.to_bytes().to_vec();
        bytes[2..4].copy_from_slice(&total.to_be_bytes());
        bytes[10..12].fill(0);
        let ck = internet_checksum(&bytes[..IPV4_HEADER_LEN], 0);
        bytes[10..12].copy_from_slice(&ck.to_be_bytes());
        let parsed = Ipv4Packet::parse(&Bytes::copy_from_slice(&bytes));
        prop_assert_eq!(&parsed, &copying::ipv4(&bytes));
        let total = usize::from(total);
        if total < IPV4_HEADER_LEN {
            prop_assert_eq!(parsed, Err(WireError::BadLength));
        } else if total > bytes.len() {
            prop_assert_eq!(parsed, Err(WireError::Truncated { needed: total, got: bytes.len() }));
        } else {
            prop_assert_eq!(parsed.unwrap().payload.len(), total - IPV4_HEADER_LEN);
        }
    }

    #[test]
    fn udp_round_trips(
        src in arb_ipv4_addr(), dst in arb_ipv4_addr(),
        sp in any::<u16>(), dp in any::<u16>(),
        payload in arb_payload(256),
    ) {
        let d = UdpDatagram::new(sp, dp, payload);
        let bytes = d.to_bytes(src, dst);
        let back = UdpDatagram::parse(&bytes, src, dst).unwrap();
        prop_assert!(points_into(&back.payload, &bytes));
        prop_assert_eq!(&back, &copying::udp(&bytes, src, dst).unwrap());
        prop_assert_eq!(back, d.clone());
        let (frame, view) = framed(&bytes);
        let back = UdpDatagram::parse(&view, src, dst).unwrap();
        prop_assert!(points_into(&back.payload, &frame));
        prop_assert_eq!(back, d);
    }

    #[test]
    fn udp_bitflips_detected(
        src in arb_ipv4_addr(), dst in arb_ipv4_addr(),
        payload in arb_payload(64),
        flip in any::<proptest::sample::Index>(),
    ) {
        let d = UdpDatagram::new(1000, 2000, payload);
        let mut bytes = d.to_bytes(src, dst).to_vec();
        let nbits = bytes.len() * 8;
        let bit = flip.index(nbits);
        bytes[bit / 8] ^= 1 << (bit % 8);
        // Either the parse fails, or — when the flip hit the checksum
        // field making it zero ("no checksum") — payload mismatch is not
        // possible since data is untouched. So: a successful parse must
        // equal the original except possibly when the checksum field
        // itself was zeroed.
        let parsed = UdpDatagram::parse(&Bytes::copy_from_slice(&bytes), src, dst);
        prop_assert_eq!(&parsed, &copying::udp(&bytes, src, dst));
        if let Ok(back) = parsed {
            let checksum_bits = 6 * 8..8 * 8;
            prop_assert!(
                checksum_bits.contains(&bit),
                "flip of bit {bit} accepted: {back:?}"
            );
        }
    }

    #[test]
    fn udp_bad_length_matches_reference(
        src in arb_ipv4_addr(), dst in arb_ipv4_addr(),
        payload in arb_payload(64),
        len in any::<u16>(),
    ) {
        let d = UdpDatagram::new(1000, 2000, payload);
        let mut bytes = d.to_bytes(src, dst).to_vec();
        bytes[4..6].copy_from_slice(&len.to_be_bytes());
        let parsed = UdpDatagram::parse(&Bytes::copy_from_slice(&bytes), src, dst);
        prop_assert_eq!(&parsed, &copying::udp(&bytes, src, dst));
        let len = usize::from(len);
        if len < 8 {
            prop_assert_eq!(parsed, Err(WireError::BadLength));
        } else if len > bytes.len() {
            prop_assert_eq!(parsed, Err(WireError::Truncated { needed: len, got: bytes.len() }));
        }
    }

    #[test]
    fn icmp_echo_round_trips(ident in any::<u16>(), seq in any::<u16>(), payload in arb_payload(128)) {
        let msg = IcmpMessage::EchoRequest { ident, seq, payload };
        prop_assert_eq!(IcmpMessage::parse(&msg.to_bytes()).unwrap(), msg);
    }

    #[test]
    fn icmp_bitflips_detected(ident in any::<u16>(), seq in any::<u16>(), flip in any::<proptest::sample::Index>()) {
        let msg = IcmpMessage::EchoRequest { ident, seq, payload: Bytes::from_static(b"0123456789") };
        let mut bytes = msg.to_bytes().to_vec();
        let bit = flip.index(bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(IcmpMessage::parse(&bytes).is_err(), "flip of bit {} accepted", bit);
    }

    #[test]
    fn arp_round_trips(
        op in prop_oneof![Just(ArpOp::Request), Just(ArpOp::Reply)],
        smac in arb_mac(), tmac in arb_mac(),
        sip in arb_ipv4_addr(), tip in arb_ipv4_addr(),
    ) {
        let pkt = ArpPacket { op, sender_mac: smac, sender_ip: sip, target_mac: tmac, target_ip: tip };
        prop_assert_eq!(ArpPacket::parse(&pkt.to_bytes()).unwrap(), pkt);
    }

    #[test]
    fn tcp_round_trips(
        src in arb_ipv4_addr(), dst in arb_ipv4_addr(),
        sp in any::<u16>(), dp in any::<u16>(),
        seq in any::<u32>(), ack in any::<u32>(),
        flag_bits in 0u8..32, window in any::<u16>(),
        payload in arb_payload(256),
    ) {
        let seg = TcpSegment {
            src_port: sp, dst_port: dp, seq, ack,
            flags: tcp_flags_from_bits(flag_bits),
            window, payload,
        };
        let back = TcpSegment::parse(&seg.to_bytes(src, dst), src, dst).unwrap();
        prop_assert_eq!(back, seg);
    }

    #[test]
    fn ipip_is_invertible_and_size_exact(
        pkt in arb_ipv4_packet(),
        osrc in arb_ipv4_addr(), odst in arb_ipv4_addr(),
    ) {
        let outer = ipip::encapsulate(&pkt, osrc, odst);
        prop_assert_eq!(outer.total_len(), pkt.total_len() + ipip::ENCAP_OVERHEAD);
        prop_assert_eq!(outer.header.src, osrc);
        prop_assert_eq!(outer.header.dst, odst);
        let inner = ipip::decapsulate(&outer).unwrap();
        prop_assert!(points_into(&inner.payload, &outer.payload));
        prop_assert_eq!(&inner, &copying::ipv4(&outer.payload).unwrap());
        prop_assert_eq!(inner, pkt);
    }

    #[test]
    fn ipip_survives_the_wire(
        pkt in arb_ipv4_packet(),
        osrc in arb_ipv4_addr(), odst in arb_ipv4_addr(),
    ) {
        // Encapsulate, serialize, reparse, decapsulate — the full tunnel path.
        let outer = ipip::encapsulate(&pkt, osrc, odst);
        let wire = outer.to_bytes();
        let reparsed = Ipv4Packet::parse(&wire).unwrap();
        let inner = ipip::decapsulate(&reparsed).unwrap();
        // Both layers are views into the one received buffer.
        prop_assert!(points_into(&inner.payload, &wire));
        prop_assert_eq!(inner, pkt);
    }

    #[test]
    fn checksum_verifies_after_fill(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // For any data with a zeroed 2-byte field at offset 0, writing the
        // computed checksum there makes the whole buffer verify.
        let mut buf = vec![0u8, 0u8];
        buf.extend_from_slice(&data);
        let ck = internet_checksum(&buf, 0);
        buf[0..2].copy_from_slice(&ck.to_be_bytes());
        prop_assert_eq!(internet_checksum(&buf, 0), 0);
    }

    #[test]
    fn cidr_contains_network_and_broadcast(addr in arb_ipv4_addr(), len in 0u8..=32) {
        let c = Cidr::new(addr, len);
        prop_assert!(c.contains(c.network()));
        prop_assert!(c.contains(c.broadcast()));
        prop_assert!(c.contains(addr));
    }

    #[test]
    fn cidr_display_parse_round_trips(addr in arb_ipv4_addr(), len in 0u8..=32) {
        let c = Cidr::new(addr, len);
        let back: Cidr = c.to_string().parse().unwrap();
        prop_assert_eq!(back, c);
    }

    #[test]
    fn mac_display_parse_round_trips(mac in arb_mac()) {
        let back: MacAddr = mac.to_string().parse().unwrap();
        prop_assert_eq!(back, mac);
    }

    #[test]
    fn parse_never_panics_on_random_bytes(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let bytes = Bytes::copy_from_slice(&data);
        prop_assert_eq!(Ipv4Packet::parse(&bytes), copying::ipv4(&data));
        let _ = ArpPacket::parse(&data);
        let _ = IcmpMessage::parse(&data);
        let a = Ipv4Addr::new(1, 2, 3, 4);
        prop_assert_eq!(UdpDatagram::parse(&bytes, a, a), copying::udp(&data, a, a));
        let _ = TcpSegment::parse(&data, a, a);
    }

    // ---- truncation: every strict prefix of a valid packet is rejected,
    // never mis-parsed (this is what keeps an injected mid-frame cut from
    // turning into a silently shorter payload).

    #[test]
    fn ipv4_truncation_rejected(pkt in arb_ipv4_packet(), cut in any::<proptest::sample::Index>()) {
        let bytes = pkt.to_bytes();
        let len = cut.index(bytes.len()); // strictly shorter than the packet
        let parsed = Ipv4Packet::parse(&bytes.slice(..len));
        prop_assert_eq!(&parsed, &copying::ipv4(&bytes[..len]));
        prop_assert!(parsed.is_err(), "prefix of {len} of {} parsed", bytes.len());
    }

    #[test]
    fn udp_truncation_rejected(
        src in arb_ipv4_addr(), dst in arb_ipv4_addr(),
        payload in arb_payload(256),
        cut in any::<proptest::sample::Index>(),
    ) {
        let d = UdpDatagram::new(1000, 2000, payload);
        let bytes = d.to_bytes(src, dst);
        let len = cut.index(bytes.len());
        let parsed = UdpDatagram::parse(&bytes.slice(..len), src, dst);
        prop_assert_eq!(&parsed, &copying::udp(&bytes[..len], src, dst));
        prop_assert!(parsed.is_err(), "prefix of {len} of {} parsed", bytes.len());
    }

    #[test]
    fn arp_truncation_rejected(
        smac in arb_mac(), sip in arb_ipv4_addr(), tip in arb_ipv4_addr(),
        cut in any::<proptest::sample::Index>(),
    ) {
        let bytes = ArpPacket::request(smac, sip, tip).to_bytes();
        let len = cut.index(bytes.len());
        prop_assert!(ArpPacket::parse(&bytes[..len]).is_err(), "prefix of {len} parsed");
    }

    #[test]
    fn ipip_truncated_inner_rejected(
        pkt in arb_ipv4_packet(),
        osrc in arb_ipv4_addr(), odst in arb_ipv4_addr(),
        cut in any::<proptest::sample::Index>(),
    ) {
        // An IPIP packet whose inner datagram was cut short must fail at
        // decapsulation, not yield a shorter inner packet.
        let inner = pkt.to_bytes();
        let len = cut.index(inner.len());
        let outer = Ipv4Packet::new(
            Ipv4Header::new(osrc, odst, IpProto::IpIp),
            Bytes::from(inner[..len].to_vec()),
        );
        let decapsulated = ipip::decapsulate(&outer);
        prop_assert_eq!(&decapsulated, &copying::ipv4(&inner[..len]));
        prop_assert!(decapsulated.is_err(), "inner prefix of {len} decapsulated");
    }

    // ---- corruption: ARP carries no checksum, but its fixed preamble
    // (htype/ptype/hlen/plen/op) is fully validated — any single-bit flip
    // there must be rejected.

    // ---- keyed MAC: the per-byte FNV step is a bijection of the state
    // (the prime is odd), so two equal-length bodies differing in a single
    // bit can NEVER share a digest — the property is exact, not
    // probabilistic, which is what lets signed-registration tampering
    // tests assert rejection instead of sampling it.

    #[test]
    fn keyed_mac_detects_any_single_bitflip(
        body in proptest::collection::vec(any::<u8>(), 1..64),
        spi in any::<u32>(),
        key in any::<u64>(),
        flip in any::<proptest::sample::Index>(),
    ) {
        let base = keyed_mac(&body, spi, key);
        let bit = flip.index(body.len() * 8);
        let mut mutated = body.clone();
        mutated[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(keyed_mac(&mutated, spi, key), base, "bit {} collided", bit);
    }

    #[test]
    fn keyed_mac_is_deterministic_and_key_sensitive(
        body in proptest::collection::vec(any::<u8>(), 0..64),
        spi in any::<u32>(),
        key in any::<u64>(),
        other_key in any::<u64>(),
    ) {
        prop_assert_eq!(keyed_mac(&body, spi, key), keyed_mac(&body, spi, key));
        if other_key != key {
            // Equal-length inputs under different initial states cannot
            // collide either: the whole compression is a bijection per key.
            prop_assert_ne!(keyed_mac(&body, spi, key), keyed_mac(&body, spi, other_key));
        }
    }

    #[test]
    fn auth_tlv_round_trips_and_verifies(
        body in proptest::collection::vec(any::<u8>(), 0..64),
        spi in any::<u32>(),
        key in any::<u64>(),
        wrong in any::<u64>(),
    ) {
        let tlv = AuthTlv::compute(&body, spi, key);
        let mut buf = bytes::BytesMut::new();
        tlv.encode_into(&mut buf);
        prop_assert_eq!(buf.len(), AUTH_TLV_LEN);
        prop_assert_eq!(AuthTlv::parse_trailing(&buf).unwrap(), Some(tlv));
        prop_assert!(tlv.verify(&body, key));
        if wrong != key {
            prop_assert!(!tlv.verify(&body, wrong));
        }
    }

    #[test]
    fn auth_tlv_truncation_rejected(
        spi in any::<u32>(),
        digest in any::<u64>(),
        cut in 1usize..AUTH_TLV_LEN,
    ) {
        let tlv = AuthTlv { spi, digest };
        let mut buf = bytes::BytesMut::new();
        tlv.encode_into(&mut buf);
        prop_assert!(
            AuthTlv::parse_trailing(&buf[..cut]).is_err(),
            "prefix of {} parsed", cut
        );
    }

    #[test]
    fn arp_preamble_bitflips_rejected(
        op in prop_oneof![Just(ArpOp::Request), Just(ArpOp::Reply)],
        smac in arb_mac(), tmac in arb_mac(),
        sip in arb_ipv4_addr(), tip in arb_ipv4_addr(),
        bit in 0usize..(8 * 8),
    ) {
        let pkt = ArpPacket { op, sender_mac: smac, sender_ip: sip, target_mac: tmac, target_ip: tip };
        let mut bytes = pkt.to_bytes().to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(ArpPacket::parse(&bytes).is_err(), "flip of preamble bit {bit} accepted");
    }
}

fn tcp_flags_from_bits(b: u8) -> TcpFlags {
    TcpFlags {
        fin: b & 1 != 0,
        syn: b & 2 != 0,
        rst: b & 4 != 0,
        psh: b & 8 != 0,
        ack: b & 16 != 0,
    }
}
