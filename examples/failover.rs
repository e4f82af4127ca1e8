//! Failover demo (§3.6, Table 3): crash stack components under live load
//! and watch the supervisor's stateless recovery — transparent for the
//! stateless components, bounded connection loss for TCP, and zero impact
//! on the other replica either way.
//!
//! ```sh
//! cargo run --release --example failover
//! ```

use neat::config::NeatConfig;
use neat::msg::Msg;
use neat::replica::Role;
use neat_apps::scenario::{Testbed, TestbedSpec, Workload};
use neat_sim::Time;

fn lost_conns(tb: &Testbed) -> u64 {
    tb.web_metrics
        .iter()
        .map(|m| m.borrow().conns_lost_to_crash)
        .sum()
}

fn crash_and_report(role: Role) {
    let mut spec = TestbedSpec::amd(NeatConfig::multi(2), 4);
    spec.clients = 4;
    spec.workload = Workload {
        conns_per_client: 8,
        requests_per_conn: 1_000,
        ..Workload::default()
    };
    let mut tb = Testbed::build(spec);
    let before = tb.measure(Time::from_millis(150), Time::from_millis(150));

    let pid = tb.deployment.comp_pids[0]
        .iter()
        .find(|(r, _)| *r == role)
        .map(|(_, p)| *p)
        .unwrap();
    println!("→ injecting a fault into the {role:?} component of replica 0…");
    tb.sim.send_external(pid, Msg::Poison);

    let after = tb.measure(Time::from_millis(100), Time::from_millis(300));
    let stats = tb.deployment.sup_stats.borrow().clone();
    println!(
        "   crash detected: {}   restarted: {}   TCP state lost: {}",
        stats.crashes_seen,
        stats.recoveries,
        if stats.stateful_losses > 0 {
            "yes"
        } else {
            "no"
        }
    );
    println!(
        "   connections lost: {}   client errors: {}",
        lost_conns(&tb),
        tb.total_errors()
    );
    println!(
        "   throughput: {:.1} krps before → {:.1} krps after recovery\n",
        before.krps, after.krps
    );
}

fn main() {
    println!("Multi-component NEaT 2x under load; one fault per run.\n");
    for role in [Role::Pf, Role::Ip, Role::Udp, Role::Tcp] {
        crash_and_report(role);
    }
    println!(
        "Stateless components (PF/IP/UDP) recover transparently — the effect\n\
         is no worse than a packet delay. Only the TCP component's crash\n\
         loses its replica's connections; the other replica never notices."
    );
}
