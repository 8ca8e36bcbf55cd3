//! Marks the application layer from outside: [`Marked`] implements
//! [`EnclaveService`] by forwarding every call to a real service, with a
//! span around each lifecycle call, while [`AppHarness`] drives the
//! calibration.

use teenet::driver::AttestService;
use teenet_app::{
    AppHarness, EnclaveService, ServiceEnv, StepOutcome, StepRequest, StepSpec, WorkProfile,
};
use teenet_interdomain::driver::BgpService;
use teenet_keystore::KeystoreService;
use teenet_load::Calibration;
use teenet_mbox::driver::TlsMboxService;
use teenet_sgx::cost::Counters;
use teenet_sgx::{SwitchlessConfig, TeeBackend, TransitionMode, TransitionStats};
use teenet_tor::driver::TorService;

use crate::marks::Marks;

struct Marked<'a, S> {
    inner: S,
    marks: &'a mut Marks,
}

impl<S: EnclaveService> EnclaveService for Marked<'_, S> {
    type Error = S::Error;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn describe(&self) -> &'static str {
        self.inner.describe()
    }

    fn deploy(&mut self, env: &mut ServiceEnv) -> Result<(), S::Error> {
        let inner = &mut self.inner;
        self.marks.span("app.deploy", 1, |_| inner.deploy(env))
    }

    fn provision(&mut self, env: &mut ServiceEnv) -> Result<(), S::Error> {
        let inner = &mut self.inner;
        self.marks
            .span("app.provision", 1, |_| inner.provision(env))
    }

    fn set_transition_mode(
        &mut self,
        mode: TransitionMode,
        switchless: SwitchlessConfig,
    ) -> Result<(), S::Error> {
        let inner = &mut self.inner;
        self.marks.span("app.set_transition", 1, |_| {
            inner.set_transition_mode(mode, switchless)
        })
    }

    fn setup_counters(&self) -> Result<Counters, S::Error> {
        self.inner.setup_counters()
    }

    fn server_counters(&self) -> Result<Counters, S::Error> {
        self.inner.server_counters()
    }

    fn client_counters(&self) -> Result<Counters, S::Error> {
        self.inner.client_counters()
    }

    fn transition_stats(&self) -> Result<TransitionStats, S::Error> {
        self.inner.transition_stats()
    }

    fn session_script(&self, env: &ServiceEnv) -> Result<Vec<StepSpec>, S::Error> {
        self.inner.session_script(env)
    }

    fn run_step(
        &mut self,
        spec: &StepSpec,
        request: StepRequest,
        env: &mut ServiceEnv,
    ) -> Result<StepOutcome, S::Error> {
        let inner = &mut self.inner;
        self.marks
            .span("app.run_step", 1, |_| inner.run_step(spec, request, env))
    }

    fn teardown(&mut self, env: &mut ServiceEnv) -> Result<(), S::Error> {
        let inner = &mut self.inner;
        self.marks.span("app.teardown", 1, |_| inner.teardown(env))
    }
}

fn calibrate_marked<S: EnclaveService>(
    service: S,
    seed: u64,
    mode: TransitionMode,
    backend: TeeBackend,
    marks: &mut Marks,
) -> Calibration {
    let mut marked = Marked {
        inner: service,
        marks,
    };
    let profile: WorkProfile =
        AppHarness::with_switchless(seed, mode, backend, SwitchlessConfig::default())
            .calibrate(&mut marked)
            .expect("calibration cannot fail on an honest deployment");
    profile.into()
}

/// Calibrates registry scenario `name` the way `Scenario::calibrate` does
/// (same harness, seed, mode and backend, default switchless pool), but
/// through the marking wrapper. `None` for a name outside the five paper
/// workloads.
pub fn calibrate(
    name: &str,
    seed: u64,
    mode: TransitionMode,
    backend: TeeBackend,
    marks: &mut Marks,
) -> Option<Calibration> {
    Some(match name {
        "attest" => calibrate_marked(AttestService::default(), seed, mode, backend, marks),
        "tls" => calibrate_marked(TlsMboxService::default(), seed, mode, backend, marks),
        "tor" => calibrate_marked(TorService::default(), seed, mode, backend, marks),
        "bgp" => calibrate_marked(BgpService::default(), seed, mode, backend, marks),
        "keystore" => calibrate_marked(KeystoreService::default(), seed, mode, backend, marks),
        _ => return None,
    })
}
