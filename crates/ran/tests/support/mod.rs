//! Test-only reference implementations shared by the integration suites.

pub mod multiuser;
