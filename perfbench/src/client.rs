//! A `selectd` wire client.

use std::io;
use std::net::{SocketAddr, TcpStream};

use sampleselect::server::wire::{self, Request, Response};

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// One connection; one request in flight at a time.
pub struct WireClient {
    stream: TcpStream,
}

impl WireClient {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Send an encoded request payload and return the response payload.
    pub fn call_raw(&mut self, payload: &[u8]) -> io::Result<Vec<u8>> {
        wire::write_frame(&mut self.stream, payload)?;
        wire::read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))
    }

    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        let payload = wire::encode_request(req).map_err(invalid)?;
        let bytes = self.call_raw(&payload)?;
        wire::decode_response(&bytes).map_err(invalid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampleselect::element::reference_select;
    use sampleselect::server::dataset::{self, DatasetSpec};
    use sampleselect::{QueryKind, QueryRequest, QueryStatus, SelectServer, ServerConfig};
    use std::net::TcpListener;

    /// Serves one connection the way `selectd` does, except that
    /// `Drain` answers without exiting the process.
    fn serve_connection(mut stream: TcpStream, server: &SelectServer) -> io::Result<()> {
        while let Some(payload) = wire::read_frame(&mut stream)? {
            let response = match wire::decode_request(&payload) {
                Err(e) => Response::Rejected {
                    reason: e.to_string(),
                },
                Ok(Request::Ping) => Response::Pong,
                Ok(Request::Stats) => Response::Stats {
                    json: server.snapshot().to_json(),
                },
                Ok(Request::Drain) => Response::Drained {
                    json: server.drain().to_json(),
                },
                Ok(Request::Query(q)) => match server.query(q) {
                    Ok(r) => Response::Done {
                        status: r.status,
                        batched: r.batched,
                    },
                    Err(e) => Response::Rejected {
                        reason: e.to_string(),
                    },
                },
            };
            let bytes = wire::encode_response(&response).map_err(invalid)?;
            wire::write_frame(&mut stream, &bytes)?;
        }
        Ok(())
    }

    fn query(kind: QueryKind, spec: DatasetSpec) -> Request {
        Request::Query(QueryRequest {
            tenant: "t".to_string(),
            kind,
            dataset: spec,
            deadline_ms: None,
            seed: 5,
        })
    }

    #[test]
    fn client_round_trips_against_an_in_process_server() {
        let server = SelectServer::start(ServerConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                let (stream, _) = listener.accept().unwrap();
                serve_connection(stream, &server).unwrap();
            });
            let mut client = WireClient::connect(addr).unwrap();
            assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);

            let spec = DatasetSpec::uniform(1 << 14, 3);
            let want = reference_select(&dataset::instantiate(&spec), 1234).unwrap();
            match client
                .call(&query(QueryKind::Exact { rank: 1234 }, spec))
                .unwrap()
            {
                Response::Done {
                    status: QueryStatus::Exact { value },
                    ..
                } => assert_eq!(value.to_bits(), want.to_bits()),
                other => panic!("unexpected {other:?}"),
            }
            let out_of_range = query(QueryKind::Exact { rank: 1 << 20 }, spec);
            assert!(matches!(
                client.call(&out_of_range).unwrap(),
                Response::Rejected { .. }
            ));
            match client.call(&Request::Stats).unwrap() {
                Response::Stats { json } => assert!(json.contains("select_kernel_duration_ns")),
                other => panic!("unexpected {other:?}"),
            }
            assert!(matches!(
                client.call(&Request::Drain).unwrap(),
                Response::Drained { .. }
            ));
            // Closing the connection ends the server thread.
        });
    }
}
