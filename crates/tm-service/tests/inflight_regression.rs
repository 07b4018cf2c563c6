//! Regression: a panicking connection thread must not leak its slot in
//! the inflight admission counter. Before the RAII guard, the counter
//! was incremented and decremented manually around the batch, so a
//! panic between the two permanently shrank capacity — with
//! `max_inflight = 1`, one panic turned every later request into a 429.
//!
//! Lives in its own integration-test file (= its own process) because
//! fault plans are process-global and sibling `#[test]`s run
//! concurrently.

use std::net::TcpListener;
use std::sync::Arc;

use tm_automata::fault::{clear_fault, install_fault, FaultPlan};
use tm_service::wire::encode_batch_request;
use tm_service::{http_request, serve, QuerySpec, Service, ServiceConfig};

#[test]
fn a_panicked_batch_does_not_leak_the_admission_slot() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr").to_string();
    let service = Arc::new(Service::new(ServiceConfig {
        max_inflight: 1,
        ..ServiceConfig::default()
    }));
    let server = std::thread::spawn(move || serve(listener, service));

    let batch = encode_batch_request(&[QuerySpec::parse("dstm+aggressive:of:2:1").unwrap()], None);

    // The panic flavor of the encode fault: the connection thread dies
    // mid-response while holding the (sole) admission slot. The client
    // sees a torn connection, not an HTTP answer.
    install_fault(FaultPlan {
        site: "encode".to_owned(),
        nth: 1,
        delay_ms: 0,
        panic: true,
    });
    let torn = http_request(&addr, "POST", "/v1/batch", Some(&batch));
    clear_fault();
    assert!(torn.is_err(), "the panicked thread sent no response: {torn:?}");

    // With the slot released by the guard's Drop during unwinding, the
    // very next request admits; a leaked slot would 429 here forever.
    let (status, body) = http_request(&addr, "POST", "/v1/batch", Some(&batch)).expect("retry");
    assert_eq!(status, 200, "leaked admission slot? body: {body}");

    let (status, _) = http_request(&addr, "POST", "/v1/shutdown", None).expect("shutdown");
    assert_eq!(status, 200);
    server.join().expect("server thread").expect("serve result");
}
