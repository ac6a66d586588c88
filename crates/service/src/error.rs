//! Structured JSON errors.
//!
//! Every failure the service can produce flows through [`ServiceError`] and
//! renders as one body shape:
//!
//! ```json
//! {"error": {"code": "eta_out_of_range", "status": 422, "message": "…"}}
//! ```
//!
//! Algorithm-layer failures ([`AsmError`]) and graph-layer failures
//! ([`GraphError`]) map onto stable machine-readable codes, so clients can
//! branch on `code` without parsing prose.

use crate::http::{Request, Response};
use smin_core::AsmError;
use smin_graph::error::GraphError;

/// A service failure: HTTP status, stable code, human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceError {
    pub status: u16,
    pub code: &'static str,
    pub message: String,
}

impl ServiceError {
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        ServiceError {
            status,
            code,
            message: message.into(),
        }
    }

    /// 400 — the request itself is malformed (bad JSON, missing field).
    pub fn bad_request(message: impl Into<String>) -> Self {
        ServiceError::new(400, "bad_request", message)
    }

    /// 404 — no such route or resource.
    pub fn not_found(code: &'static str, message: impl Into<String>) -> Self {
        ServiceError::new(404, code, message)
    }

    /// 408 — the peer started a request (head parsed) but stalled past the
    /// request timeout. The body is deterministic so tests can pin it.
    pub fn request_timeout() -> Self {
        ServiceError::new(
            408,
            "request_timeout",
            "request timed out before the body completed",
        )
    }

    /// 429 — admission control: the pending-dispatch queue is at its
    /// high-water mark. Deterministic body, pinned by the overload test.
    pub fn overloaded() -> Self {
        ServiceError::new(
            429,
            "overloaded",
            "pending request queue is full; retry later",
        )
    }

    /// 504 — the request's own `X-Deadline-Millis` budget was exhausted
    /// before a dispatch thread could start it.
    pub fn deadline_exceeded(deadline_ms: u64) -> Self {
        ServiceError::new(
            504,
            "deadline_exceeded",
            format!("deadline of {deadline_ms}ms exceeded before dispatch"),
        )
    }

    /// The response body `{"error": {...}}`.
    pub fn to_value(&self) -> serde_json::Value {
        serde_json::Value::Object(vec![(
            "error".to_string(),
            serde_json::json!({
                "code": self.code,
                "status": self.status,
                "message": self.message.clone(),
            }),
        )])
    }

    /// Renders the error as a full HTTP response.
    pub fn to_response(&self) -> Response {
        Response::json(self.status, &self.to_value())
    }
}

/// Extracts the request's `X-Deadline-Millis` budget. `Ok(None)` when the
/// header is absent; 400 when it is present but not a non-negative integer.
/// The event loop calls this after parsing and before admission, so a bad
/// header is a 400 even when the server is overloaded.
pub fn parse_deadline(req: &Request) -> Result<Option<u64>, ServiceError> {
    match req.header("x-deadline-millis") {
        None => Ok(None),
        Some(v) => v.trim().parse::<u64>().map(Some).map_err(|_| {
            ServiceError::bad_request(format!(
                "bad X-Deadline-Millis value {v:?}: expected a non-negative integer count of milliseconds"
            ))
        }),
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({}): {}", self.code, self.status, self.message)
    }
}

impl From<AsmError> for ServiceError {
    fn from(e: AsmError) -> Self {
        // All algorithm-parameter failures are 422: the request was
        // well-formed but semantically unrunnable against the target graph.
        let code = match &e {
            AsmError::EtaOutOfRange { .. } => "eta_out_of_range",
            AsmError::InvalidEps(_) => "invalid_eps",
            AsmError::InvalidBatch(_) => "invalid_batch",
            AsmError::InvalidLtInstance { .. } => "invalid_lt_instance",
            AsmError::EmptyGraph => "empty_graph",
            AsmError::SessionMismatch { .. } => "session_mismatch",
        };
        ServiceError::new(422, code, e.to_string())
    }
}

impl From<GraphError> for ServiceError {
    fn from(e: GraphError) -> Self {
        let (status, code) = match &e {
            GraphError::Parse { .. } => (422, "graph_parse_error"),
            GraphError::Io(_) => (400, "graph_io_error"),
            _ => (422, "graph_invalid"),
        };
        ServiceError::new(status, code, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asm_errors_map_to_stable_codes() {
        let e: ServiceError = AsmError::EtaOutOfRange { eta: 99, n: 10 }.into();
        assert_eq!(e.status, 422);
        assert_eq!(e.code, "eta_out_of_range");
        assert!(e.message.contains("99"));
        let e: ServiceError = AsmError::InvalidEps(1.5).into();
        assert_eq!(e.code, "invalid_eps");
        let e: ServiceError = AsmError::InvalidBatch(0).into();
        assert_eq!(e.code, "invalid_batch");
        let e: ServiceError = AsmError::EmptyGraph.into();
        assert_eq!(e.code, "empty_graph");
        let e: ServiceError = AsmError::SessionMismatch {
            session_n: 1,
            graph_n: 2,
        }
        .into();
        assert_eq!(e.code, "session_mismatch");
    }

    #[test]
    fn graph_errors_map_to_codes() {
        let e: ServiceError = GraphError::Parse {
            line: 3,
            message: "bad target".into(),
        }
        .into();
        assert_eq!(e.code, "graph_parse_error");
        assert!(e.message.contains("line 3"));
        let e: ServiceError = GraphError::Io("gone".into()).into();
        assert_eq!(e.code, "graph_io_error");
        let e: ServiceError = GraphError::SelfLoop { u: 4 }.into();
        assert_eq!(e.code, "graph_invalid");
    }

    #[test]
    fn error_body_shape_is_stable() {
        let e = ServiceError::bad_request("no body");
        let body = serde_json::to_string(&e.to_value()).unwrap();
        assert_eq!(
            body,
            r#"{"error":{"code":"bad_request","status":400,"message":"no body"}}"#
        );
        let resp = e.to_response();
        assert_eq!(resp.status, 400);
    }
}
