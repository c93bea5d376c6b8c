//! The wire has one framing for digitization: `Submit`. The retired
//! bare digitize (`0x02`) and ganged (`0x05`) request kinds get a typed
//! `Protocol` error while other connections keep being served, and
//! correlation id 0 is an ordinary id whose frames come back tagged.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use adc_server::protocol::{
    self, crc32, encode_request, Request, Response, HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION,
};
use adc_server::{
    Client, DigitizeRequest, ErrorCode, GangedRequest, Server, ServerConfig, SubmitBody,
    SubmitRequest,
};

fn submit(corr_id: u64, body: SubmitBody) -> Request {
    Request::Submit(SubmitRequest { corr_id, body })
}

/// A frame of retired kind `kind` carrying `body` the way the bare
/// frames did: a `Submit` payload without its correlation id (8 bytes)
/// and body tag (1 byte).
fn bare_frame(kind: u8, body: SubmitBody) -> Vec<u8> {
    let submit = encode_request(&submit(1, body));
    let payload = &submit[HEADER_LEN + 9..submit.len() - 4];
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.extend_from_slice(&VERSION.to_le_bytes());
    frame.push(kind);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    let crc = crc32(&frame);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

fn raw_connect(addr: std::net::SocketAddr) -> TcpStream {
    let raw = TcpStream::connect(addr).expect("raw connect");
    raw.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    raw
}

#[test]
fn retired_bare_frames_get_protocol_errors_and_others_keep_being_served() {
    let cfg = ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    };
    let (handle, join) = Server::spawn("127.0.0.1:0", cfg).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let retired = [
        (
            0x02,
            SubmitBody::Digitize(DigitizeRequest::tone(1, 10e6, 1024)),
        ),
        (
            0x05,
            SubmitBody::Ganged(GangedRequest::tone(1, 2, 20e6, 1024)),
        ),
    ];
    for (kind, body) in retired {
        let mut raw = raw_connect(handle.addr());
        raw.write_all(&bare_frame(kind, body))
            .expect("write bare frame");
        match protocol::read_response(&mut raw, MAX_PAYLOAD) {
            Ok(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Protocol),
            other => panic!("kind {kind:#04x}: expected a protocol error, got {other:?}"),
        }
        // A second connection is still served, end to end.
        let served = client
            .digitize(&DigitizeRequest::tone(2, 10e6, 1024))
            .expect("digitize beside a retired frame");
        assert_eq!(served.samples.len(), 1024);
    }
    client.shutdown().expect("shutdown acknowledged");
    join.join().expect("server thread").expect("serve returns");
}

#[test]
fn correlation_id_zero_is_an_ordinary_tagged_id() {
    let cfg = ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    };
    let (handle, join) = Server::spawn("127.0.0.1:0", cfg).expect("bind");
    let mut raw = raw_connect(handle.addr());
    let request = DigitizeRequest::tone(3, 10e6, 1024);
    raw.write_all(&encode_request(&submit(
        0,
        SubmitBody::Digitize(request.clone()),
    )))
    .expect("write submit");
    let mut samples = Vec::new();
    loop {
        match protocol::read_response(&mut raw, MAX_PAYLOAD).expect("response frame") {
            Response::Tagged { corr_id: 0, inner } => match *inner {
                Response::Batch { samples: chunk, .. } => samples.extend(chunk),
                Response::Done(done) => {
                    assert_eq!(done.total_samples, 1024);
                    break;
                }
                other => panic!("unexpected inner frame {other:?}"),
            },
            other => panic!("expected a frame tagged 0, got {other:?}"),
        }
    }
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert_eq!(
        client.digitize(&request).expect("digitize").samples,
        samples
    );
    client.shutdown().expect("shutdown acknowledged");
    join.join().expect("server thread").expect("serve returns");
}
